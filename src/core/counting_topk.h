// The counting-based reduction of Section 2 (Rahul–Janardan, improved
// as described by the paper): top-k from a reporting structure plus a
// (c-approximate or exact) counting structure.
//
// Query: binary-search the global sorted weight list for the largest
// threshold tau* whose count is >= k (O(log n) counting queries), then
// one prioritized fetch at tau* plus k-selection. With an exact counter
// the fetch returns between k and the count at the next weight step; a
// c-approximate counter inflates the fetch by at most a factor c (we
// terminate the binary search on count in [k, c*k] and cap the fetch).
//
// Cost: O(Q_cnt(n) * log n + Q_rep(n) + c*k/B). Space:
// O(S_rep + S_cnt). Implemented as the paper's second baseline: the
// section-2 reduction carries a log n multiplier on the counting term
// that Theorems 1 and 2 eliminate.
//
// Counter contract:
//   size_t Count(q, tau, stats)   — returns a value in
//                                   [|exact|, c*|exact|] for fixed c>=1.

#ifndef TOPK_CORE_COUNTING_TOPK_H_
#define TOPK_CORE_COUNTING_TOPK_H_

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

template <typename Problem, typename Pri, typename Counter>
  requires PrioritizedStructure<Pri, Problem> &&
           CounterStructure<Counter, Problem>
class CountingTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate exports, consumed by serve/shareable.h's recursive
  // thread-shareability check.
  using Prioritized = Pri;
  using CounterStructure = Counter;

  explicit CountingTopK(std::vector<Element> data)
      : counter_(data), pri_(MakeWeightsAndPass(&data)), n_(pri_.size()) {}

  size_t size() const { return n_; }

  // The k heaviest elements of q(D), heaviest first, written into *out
  // (cleared first). The final fetch pool is borrowed from `scratch`,
  // so a warm arena and a warm *out serve the query with zero heap
  // allocations (the binary search itself only issues counting probes).
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr) const {
    out->clear();
    if (k == 0 || n_ == 0) return;
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    trace::Span span(tracer, "counting_query", stats);
    span.Arg("k", k);

    // Largest threshold (smallest index in weights_desc_) with
    // count >= k; counts are monotone in the index.
    size_t lo = 0, hi = weights_desc_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const size_t count = counter_.Count(q, weights_desc_[mid], stats);
      if (stats != nullptr) ++stats->max_queries;  // count probes
      if (count >= k) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const double tau = lo < weights_desc_.size() ? weights_desc_[lo]
                                                 : kNegInf;
    MonitoredPool<Element> fetched =
        MonitoredQuery(pri_, q, tau, n_ + 1, scratch, stats, tracer);
    SelectTopKInto(&fetched.elements, k, out);
  }

 private:
  std::vector<Element> MakeWeightsAndPass(std::vector<Element>* data) {
    weights_desc_.reserve(data->size());
    for (const Element& e : *data) weights_desc_.push_back(e.weight);
    std::sort(weights_desc_.begin(), weights_desc_.end(),
              std::greater<double>());
    return std::move(*data);
  }

  std::vector<double> weights_desc_;
  Counter counter_;
  Pri pri_;
  size_t n_;
};

}  // namespace topk

#endif  // TOPK_CORE_COUNTING_TOPK_H_
