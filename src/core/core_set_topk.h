// Theorem 1: the worst-case reduction from top-k to prioritized
// reporting.
//
// Given any prioritized structure with geometrically converging space and
// Q_pri(n) >= log_B n, on a polynomially bounded problem, this structure
// answers top-k queries in O(Q_pri(n) * log_{g sqrt(B)} n + k/B) I/Os
// with g = Q_pri(n)/log_B n — i.e. within an O(log_B n) factor of the
// prioritized query cost — using O(S_pri(n)) space.
//
// Composition (Section 3.2):
//   * f = 12*lambda*B*Q_pri(n);
//   * a TopFChain on D serves queries with k <= f: its candidate pool
//     (unsorted, heaviest-closed, see core/top_f.h) holds the top-min(f,
//     |q(D)|), and one SelectTopKInto of exactly k writes the answer;
//   * core-sets R[i] of D with K = 2^{i-1}*f (i = 1..h), each carrying
//     its own TopFChain, serve queries with k > f, pivot first: the
//     element of weight rank ceil(8*lambda*ln n) in q(R[i]) has weight
//     rank [K, 4K] in q(D), so one prioritized fetch of {w >= pivot}
//     (budget 8K + 1) plus k-selection finishes; only when that route
//     fails does a tau = -inf probe (budget 4K + 1) run, and a completed
//     probe answers by k-selection; a rung with |R[i]| below the pivot
//     rank (the top rung at n = 2^17) cannot yield a pivot and goes
//     straight to the probe;
//   * queries with k >= n/2 scan.
//
// Pivot first changes no answer and no fallback: the query falls back
// exactly when the pivot route fails AND the probe hits its budget, in
// either order, and every route that answers selects the k heaviest of
// a heaviest-closed pool holding >= min(k, |q(D)|) elements. A failed
// pivot route costs at most one extra fetch of O(Q_pri + K/B) before the
// probe, so the O(Q_pri * log n + k/B) bound stands; a wide predicate
// (|q(D)| > 4K) no longer pays for a probe it throws away.
//
// Correctness is unconditional: every sampled shortcut verifies its
// output cardinality and falls back to the binary-search reduction
// (O((Q_pri + k/B) log n), always correct) on failure. Failures are
// counted in QueryStats::fallbacks and occur with probability O(n^-1)
// per query with the paper constants. The thm1_query span's
// `answered_by` argument (kAnsweredBy* below) names the route that
// produced each answer.

#ifndef TOPK_CORE_CORE_SET_TOPK_H_
#define TOPK_CORE_CORE_SET_TOPK_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set.h"
#include "core/factory.h"
#include "core/problem.h"
#include "core/reduction_options.h"
#include "core/sink.h"
#include "core/top_f.h"
#include "trace/tracer.h"

namespace topk {

template <typename Problem, typename Pri>
  requires PrioritizedStructure<Pri, Problem>
class CoreSetTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;
  // Substrate export, consumed by serve/shareable.h's recursive
  // thread-shareability check.
  using Prioritized = Pri;

  template <typename Factory = DirectFactory<Pri>>
    requires StructureFactory<Factory, Pri, typename Problem::Element>
  explicit CoreSetTopK(std::vector<Element> data,
                       const ReductionOptions& options = {},
                       const Factory& factory = {})
      : options_(options), n_(data.size()) {
    Rng rng(options_.seed);
    f_ = ComputeF(n_, options_);

    // Core-sets R[i] of D with K = 2^{i-1} * f, for every K <= n. Draw
    // them before `data` is consumed by the main chain.
    std::vector<std::vector<Element>> samples;
    for (double K = static_cast<double>(f_) * 2.0;
         K <= static_cast<double>(n_); K *= 2.0) {
      samples.push_back(BuildCoreSet(data, K, Problem::kLambda,
                                     options_.constant_scale, &rng,
                                     options_.max_core_set_attempts));
    }

    weights_desc_.reserve(n_);
    for (const Element& e : data) weights_desc_.push_back(e.weight);
    std::sort(weights_desc_.begin(), weights_desc_.end(),
              std::greater<double>());

    chain_.emplace(std::move(data), f_, options_.constant_scale, &rng,
                   options_.max_core_set_attempts, factory);
    large_k_chains_.reserve(samples.size());
    for (std::vector<Element>& s : samples) {
      large_k_chains_.emplace_back(std::move(s), f_,
                                   options_.constant_scale, &rng,
                                   options_.max_core_set_attempts, factory);
    }
  }

  size_t size() const { return n_; }
  size_t f() const { return f_; }
  size_t num_chain_levels() const { return chain_->num_levels(); }
  size_t num_large_k_core_sets() const { return large_k_chains_.size(); }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): Theorem 1
  // composition invariants — the f clamp of inequality (11), the sorted
  // global weight list, the Lemma 2 nesting of every chain, and a
  // large-k ladder exactly matching the K = 2^{i-1} f, K <= n schedule.
  // Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    if (n_ == 0) return;
    TOPK_CHECK(f_ >= CoreSetRank(n_, Problem::kLambda,
                                 options_.constant_scale));
    TOPK_CHECK_EQ(weights_desc_.size(), n_);
    TOPK_CHECK(std::is_sorted(weights_desc_.begin(), weights_desc_.end(),
                              std::greater<double>()));
    TOPK_CHECK(chain_.has_value());
    TOPK_CHECK_EQ(chain_->level0().size(), n_);
    chain_->AuditInvariants();
    size_t expected_ladder = 0;
    for (double K = static_cast<double>(f_) * 2.0;
         K <= static_cast<double>(n_); K *= 2.0) {
      ++expected_ladder;
    }
    TOPK_CHECK_EQ(large_k_chains_.size(), expected_ladder);
    for (const TopFChain<Problem, Pri>& chain : large_k_chains_) {
      TOPK_CHECK_EQ(chain.f(), f_);
      chain.AuditInvariants();
    }
  }

  // Values of the thm1_query span's `answered_by` argument.
  static constexpr uint64_t kAnsweredByChain = 0;     // top-f chain, k <= f
  static constexpr uint64_t kAnsweredByLadder = 1;    // pivot fetch, k > f
  static constexpr uint64_t kAnsweredByProbe = 2;     // tau = -inf probe
  static constexpr uint64_t kAnsweredByFullScan = 3;  // k >= n/2
  static constexpr uint64_t kAnsweredByFallback = 4;  // binary search

  // The k heaviest elements of q(D), heaviest first (all of q(D) when
  // |q(D)| < k), written into *out (cleared first). Exact for every
  // input and every random draw. Every candidate pool across the small-k
  // chain, the large-k ladder, the full scan, and the binary-search
  // fallback lives in a buffer borrowed from `scratch`, so a warm arena
  // and a warm *out serve the query with zero heap allocations.
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr) const {
    out->clear();
    if (k == 0 || n_ == 0) return;
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    const Pri& pri = chain_->level0();
    trace::Span span(tracer, "thm1_query", stats);
    span.Arg("k", k);

    if (k <= f_) {
      std::optional<ScratchVec<Element>> pool =
          chain_->QueryPool(q, scratch, stats, tracer);
      if (pool.has_value()) {
        span.Arg("answered_by", kAnsweredByChain);
        SelectTopKInto(&*pool, k, out);
        return;
      }
      span.Arg("answered_by", kAnsweredByFallback);
      FallbackInto(q, k, scratch, out, stats, tracer);
      return;
    }

    if (k >= n_ / 2) {
      // Read everything: O(n/B) = O(k/B).
      span.Arg("answered_by", kAnsweredByFullScan);
      if (stats != nullptr) ++stats->full_scans;
      MonitoredPool<Element> all =
          MonitoredQuery(pri, q, kNegInf, n_ + 1, scratch, stats, tracer);
      SelectTopKInto(&all.elements, k, out);
      return;
    }

    // Smallest i with K = 2^{i-1} f >= k; k < n/2 guarantees K <= n, so
    // the core-set exists unless the constant-scale ablation truncated
    // the list — then only the probe can answer.
    size_t i = 0;
    double K = static_cast<double>(f_);
    while (K < static_cast<double>(k)) {
      K *= 2.0;
      ++i;
    }
    // Which rung of the large-k ladder (core-set R_i, K = 2^{i-1} f)
    // this query used — the per-query attribution E23 cares about.
    span.Arg("core_set_level", i);
    const size_t rank =
        CoreSetRank(n_, Problem::kLambda, options_.constant_scale);
    // A rung whose core-set holds fewer elements than the pivot rank can
    // never expose a pivot (its pool is a subset of q(R_i)), so such a
    // query skips the route and goes straight to the probe.
    if (i <= large_k_chains_.size() &&  // k > f, so i >= 1
        large_k_chains_[i - 1].level0().size() >= rank) {
      std::optional<ScratchVec<Element>> top =
          large_k_chains_[i - 1].QueryPool(q, scratch, stats, tracer);
      if (top.has_value() && top->size() >= rank) {
        const double tau = NthHeaviestWeight(&*top, rank);
        top.reset();  // only tau survives; recycle the pool for the fetch
        // Pivot rank is in [K, 4K] w.h.p.; allow 2x slack.
        const size_t fetch_budget = static_cast<size_t>(8.0 * K) + 1;
        MonitoredPool<Element> fetched = MonitoredQuery(
            pri, q, tau, fetch_budget, scratch, stats, tracer);
        if (!fetched.hit_budget && fetched.elements.size() >= k) {
          span.Arg("answered_by", kAnsweredByLadder);
          SelectTopKInto(&fetched.elements, k, out);
          return;
        }
      }
    }  // a failed route's pools return to the arena before the probe
    {
      const size_t budget = static_cast<size_t>(4.0 * K) + 1;
      MonitoredPool<Element> probe =
          MonitoredQuery(pri, q, kNegInf, budget, scratch, stats, tracer);
      if (!probe.hit_budget) {
        span.Arg("answered_by", kAnsweredByProbe);
        SelectTopKInto(&probe.elements, k, out);
        return;
      }
    }
    span.Arg("answered_by", kAnsweredByFallback);
    FallbackInto(q, k, scratch, out, stats, tracer);
  }

 private:
  // f = 12 * lambda * B * Q_pri(n) (eq. (9)), scaled for ablation and
  // clamped so that f >= ceil(8*lambda*ln n) (inequality (11)) — the
  // top-f result must always be deep enough to expose the Lemma 2 pivot.
  static size_t ComputeF(size_t n, const ReductionOptions& options) {
    const double q_pri = std::max(
        1.0, Pri::QueryCostBound(n, options.block_size));
    double f = options.constant_scale * 12.0 * Problem::kLambda *
               static_cast<double>(options.block_size) * q_pri;
    const double min_f = static_cast<double>(
        CoreSetRank(n, Problem::kLambda, options.constant_scale));
    if (f < min_f) f = min_f;
    if (f < 1.0) f = 1.0;
    return static_cast<size_t>(f);
  }

  void FallbackInto(const Predicate& q, size_t k, Scratch* scratch,
                    std::vector<Element>* out, QueryStats* stats,
                    trace::Tracer* tracer) const {
    trace::Instant(tracer, "fallback");
    if (stats != nullptr) ++stats->fallbacks;
    BinarySearchTopKQueryInto(chain_->level0(), weights_desc_, q, k, scratch,
                              out, stats, tracer);
  }

  ReductionOptions options_;
  size_t n_;
  size_t f_;
  std::vector<double> weights_desc_;
  // optional<> delays construction until f_ and the core-set samples are
  // ready; always engaged after the constructor.
  std::optional<TopFChain<Problem, Pri>> chain_;
  std::vector<TopFChain<Problem, Pri>> large_k_chains_;
};

}  // namespace topk

#endif  // TOPK_CORE_CORE_SET_TOPK_H_
