// The prior general reduction (Rahul & Janardan, TKDE 2014; equations (1)
// and (2) of the paper): top-k by binary search on the weight threshold.
//
// Given a prioritized structure, probe O(log n) candidate thresholds from
// the global sorted weight list; each probe is a cost-monitored
// prioritized query with budget k, so a query costs
// O(Q_pri(n)*log n + (k/B)*log n) — the multiplicative log on the output
// term is exactly what Theorems 1 and 2 remove.
//
// This serves two roles:
//   * the head-to-head baseline in the benchmarks, and
//   * the *unconditionally correct fallback* that CoreSetTopK invokes on
//     the (vanishingly rare) queries where a core-set sample is unlucky.

#ifndef TOPK_CORE_BINARY_SEARCH_TOPK_H_
#define TOPK_CORE_BINARY_SEARCH_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/kselect.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/problem.h"
#include "core/sink.h"
#include "trace/tracer.h"

namespace topk {

// Answers a top-k query against an existing prioritized structure `pri`
// using `weights_desc`, the weights of all n elements sorted descending,
// writing the answer into *out (cleared first). Every candidate pool —
// the O(log n) probes and the final fetch — lives in a buffer borrowed
// from `scratch`, so a warm arena serves the whole query without
// allocating.
//
// Invariant used: count(tau) = |{e in q(D) : w(e) >= tau}| grows by at
// most one per step down `weights_desc` (weights are pairwise distinct up
// to id tie-breaks), so the first index whose weight admits >= k matches
// admits *exactly* k — one final un-budgeted query then fetches the
// answer.
template <typename Pri, typename Predicate,
          typename Element = typename Pri::Element>
void BinarySearchTopKQueryInto(
    const Pri& pri, const std::vector<double>& weights_desc,
    const Predicate& q, size_t k, Scratch* scratch,
    std::vector<Element>* out, QueryStats* stats = nullptr,
    trace::Tracer* tracer = nullptr) {
  out->clear();
  if (k == 0 || weights_desc.empty()) return;
  if (k > weights_desc.size()) k = weights_desc.size();
  trace::Span span(tracer, "binary_search", stats);

  // Binary search for the first (largest-weight) index idx such that
  // count(weights_desc[idx]) >= k. One borrowed pool is recycled across
  // all probes.
  uint64_t probes = 0;
  size_t lo = 0;                    // count(w[lo..]) may be < k
  size_t hi = weights_desc.size();  // sentinel: tau = -inf
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++probes;
    MonitoredPool<Element> probe =
        MonitoredQuery(pri, q, weights_desc[mid], k, scratch, stats,
                       tracer);
    if (probe.hit_budget) {
      hi = mid;  // count >= k at mid; try a higher threshold.
    } else {
      lo = mid + 1;  // count < k; lower the threshold.
    }
  }
  span.Arg("probes", probes);
  const double tau = (lo < weights_desc.size())
                         ? weights_desc[lo]
                         : -std::numeric_limits<double>::infinity();
  MonitoredPool<Element> fin =
      MonitoredQuery(pri, q, tau, pri.size() + 1, scratch, stats, tracer);
  SelectTopKInto(&fin.elements, k, out);
}

// Value-returning compatibility form (owns a throwaway Scratch; may
// allocate).
template <typename Pri, typename Predicate,
          typename Element = typename Pri::Element>
std::vector<Element> BinarySearchTopKQuery(
    const Pri& pri, const std::vector<double>& weights_desc,
    const Predicate& q, size_t k, QueryStats* stats = nullptr,
    trace::Tracer* tracer = nullptr) {
  std::vector<Element> result;
  Scratch scratch;
  BinarySearchTopKQueryInto(pri, weights_desc, q, k, &scratch, &result,
                            stats, tracer);
  return result;
}

// Self-contained baseline structure: owns the prioritized structure and
// the sorted weight list.
template <typename Problem, typename Pri>
  requires PrioritizedStructure<Pri, Problem>
class BinarySearchTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate export, consumed by serve/shareable.h's recursive
  // thread-shareability check.
  using Prioritized = Pri;

  explicit BinarySearchTopK(std::vector<Element> data)
      : weights_desc_(MakeWeights(data)), pri_(std::move(data)) {}

  size_t size() const { return pri_.size(); }

  std::vector<Element> Query(const Predicate& q, size_t k,
                             QueryStats* stats = nullptr,
                             trace::Tracer* tracer = nullptr) const {
    return BinarySearchTopKQuery(pri_, weights_desc_, q, k, stats, tracer);
  }

  // Scratch-threaded form: zero allocations once `scratch` and *out are
  // warm (the serving engine's steady-state path).
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr) const {
    BinarySearchTopKQueryInto(pri_, weights_desc_, q, k, scratch, out,
                              stats, tracer);
  }

  const Pri& prioritized() const { return pri_; }

 private:
  static std::vector<double> MakeWeights(const std::vector<Element>& data) {
    std::vector<double> w;
    w.reserve(data.size());
    for (const Element& e : data) w.push_back(e.weight);
    std::sort(w.begin(), w.end(), std::greater<double>());
    return w;
  }

  std::vector<double> weights_desc_;
  Pri pri_;
};

}  // namespace topk

#endif  // TOPK_CORE_BINARY_SEARCH_TOPK_H_
