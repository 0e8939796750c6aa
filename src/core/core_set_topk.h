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
//   * a TopFChain on D serves queries with k <= f;
//   * core-sets R[i] of D with K = 2^{i-1}*f (i = 1..h), each carrying
//     its own TopFChain, serve queries with k > f: the pivot element of
//     weight rank ceil(8*lambda*ln n) in q(R[i]) has weight rank [K, 4K]
//     in q(D), so one prioritized fetch plus k-selection finishes;
//   * queries with k >= n/2 scan.
//
// Correctness is unconditional: every sampled shortcut verifies its
// output cardinality and falls back to the binary-search reduction
// (O((Q_pri + k/B) log n), always correct) on failure. Failures are
// counted in QueryStats::fallbacks and occur with probability O(n^-1)
// per query with the paper constants.

#ifndef TOPK_CORE_CORE_SET_TOPK_H_
#define TOPK_CORE_CORE_SET_TOPK_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
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
#include "parallel/context.h"
#include "parallel/flat_scan.h"
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

  // The k heaviest elements of q(D), heaviest first (all of q(D) when
  // |q(D)| < k). Exact for every input and every random draw.
  std::vector<Element> Query(const Predicate& q, size_t k,
                             QueryStats* stats = nullptr,
                             trace::Tracer* tracer = nullptr) const {
    std::vector<Element> result;
    Scratch scratch;
    QueryInto(q, k, &scratch, &result, stats, tracer);
    return result;
  }

  // Scratch-threaded form writing into *out (cleared first): every
  // candidate pool across the small-k chain, the large-k ladder, the
  // full scan, and the binary-search fallback lives in a buffer
  // borrowed from `scratch`, so a warm arena and a warm *out serve the
  // query with zero heap allocations. `par` (nullable) shards the
  // degenerate monitored fetches — the full scan, an unreachable probe
  // budget, the oversized ladder fetch, and the chain's level walks —
  // across intra-query workers; results are bit-identical either way.
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* tracer = nullptr,
                 parallel::Context* par = nullptr) const {
    out->clear();
    if (k == 0 || n_ == 0) return;
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    const Pri& pri = chain_->level0();
    const parallel::FlatMirror<Element>* mirror = chain_->level0_mirror();
    trace::Span span(tracer, "thm1_query", stats);
    span.Arg("k", k);

    if (k <= f_) {
      std::optional<ScratchVec<Element>> top =
          chain_->QueryTopF(q, scratch, stats, tracer, par);
      if (top.has_value()) {
        const size_t take = std::min(k, top->size());  // already sorted desc
        out->assign(top->begin(), top->begin() + take);
        return;
      }
      FallbackInto(q, k, scratch, out, stats, tracer, par);
      return;
    }

    if (k >= n_ / 2) {
      // Read everything: O(n/B) = O(k/B).
      span.Arg("full_scan", 1);
      if (stats != nullptr) ++stats->full_scans;
      if (mirror != nullptr && parallel::ShouldShard(par, n_, n_ + 1)) {
        ShardedFetchInto<Problem>(*mirror, q, kNegInf, k, par, scratch,
                                  out, stats, tracer);
        return;
      }
      MonitoredPool<Element> all =
          MonitoredQuery(pri, q, kNegInf, n_ + 1, scratch, stats, tracer);
      SelectTopKInto(&all.elements, k, out);
      return;
    }

    // Smallest i with K = 2^{i-1} f >= k; k < n/2 guarantees K <= n, so
    // the core-set exists unless the constant-scale ablation truncated
    // the list — then fall back.
    size_t i = 0;
    double K = static_cast<double>(f_);
    while (K < static_cast<double>(k)) {
      K *= 2.0;
      ++i;
    }
    // Which rung of the large-k ladder (core-set R_i, K = 2^{i-1} f)
    // this query probed — the per-query attribution E23 cares about.
    span.Arg("core_set_level", i);
    const size_t budget = static_cast<size_t>(4.0 * K) + 1;
    if (mirror != nullptr && parallel::ShouldShard(par, n_, budget)) {
      const size_t matched = ShardedFetchInto<Problem>(
          *mirror, q, kNegInf, k, par, scratch, out, stats, tracer);
      // matched < budget <=> the serial probe completes under budget
      // and *out already holds its k-selection.
      if (matched < budget) return;
      out->clear();  // budget hit: continue to the ladder
    } else {
      MonitoredPool<Element> probe =
          MonitoredQuery(pri, q, kNegInf, budget, scratch, stats, tracer);
      if (!probe.hit_budget) {
        SelectTopKInto(&probe.elements, k, out);
        return;
      }
    }  // budget-hit probe pool returns to the arena before the ladder
    if (i == 0 || i > large_k_chains_.size()) {
      FallbackInto(q, k, scratch, out, stats, tracer, par);
      return;
    }

    std::optional<ScratchVec<Element>> top =
        large_k_chains_[i - 1].QueryTopF(q, scratch, stats, tracer, par);
    const size_t rank = CoreSetRank(n_, Problem::kLambda,
                                    options_.constant_scale);
    if (!top.has_value() || top->size() < rank) {
      top.reset();
      FallbackInto(q, k, scratch, out, stats, tracer, par);
      return;
    }
    const double tau = (*top)[rank - 1].weight;
    top.reset();  // only tau survives; recycle the pool for the fetch

    // Pivot rank is in [K, 4K] w.h.p.; allow 2x slack.
    const size_t fetch_budget = static_cast<size_t>(8.0 * K) + 1;
    if (mirror != nullptr && parallel::ShouldShard(par, n_, fetch_budget)) {
      const size_t matched = ShardedFetchInto<Problem>(
          *mirror, q, tau, k, par, scratch, out, stats, tracer);
      // hit_budget <=> matched >= fetch_budget; |fetched| < k <=>
      // matched < k — the same two failure tests as the serial path.
      if (matched >= fetch_budget || matched < k) {
        FallbackInto(q, k, scratch, out, stats, tracer, par);
      }
      return;
    }
    MonitoredPool<Element> fetched = MonitoredQuery(
        pri, q, tau, fetch_budget, scratch, stats, tracer);
    if (fetched.hit_budget || fetched.elements.size() < k) {
      FallbackInto(q, k, scratch, out, stats, tracer, par);
      return;
    }
    SelectTopKInto(&fetched.elements, k, out);
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
                    trace::Tracer* tracer, parallel::Context* par) const {
    trace::Instant(tracer, "fallback");
    if (stats != nullptr) ++stats->fallbacks;
    BinarySearchTopKQueryInto<Problem>(chain_->level0(), weights_desc_, q,
                                       k, scratch, out, stats, tracer,
                                       chain_->level0_mirror(), par);
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
