// The top-f structure of Section 3.2 (first half): a chain of nested
// core-sets answering top-k queries with k <= f.
//
// Level 0 is the input set S = R_0 with a prioritized structure on it;
// level j+1 is a core-set of level j with parameter K = f. The chain
// stops at the first level of size <= 4f (or as soon as deeper core-sets
// stop shrinking, which cannot happen with the paper's constants).
//
// A query at level j runs pivot first:
//   * if level j has a deeper level, recurse into it; when that yields
//     >= rank = ceil(8*lambda*ln n_j) candidates, its rank-th heaviest
//     element e has weight rank in [f, 4f] within q(R_j) (Lemma 2), so
//     fetch {w >= w(e)} from level j's prioritized structure with budget
//     8f + 1 (twice Lemma 2's bound, slack before declaring the sample
//     bad); a completed fetch holding >= f elements answers the level;
//   * otherwise run a cost-monitored tau = -inf probe with budget
//     4f + 1: a completed probe is all of q(R_j) and answers the level;
//     a probe that hits its budget surfaces as nullopt, and the caller
//     (CoreSetTopK) falls back to the binary-search reduction.
//
// Pool contract: a level answers with an UNSORTED candidate pool that
// is heaviest-closed — it holds every element of q(R_j) heavier than
// any of its members — so it contains the top-min(f, |q(R_j)|) of
// q(R_j). The caller selects what it needs: one rank for a pivot
// (NthHeaviestWeight, O(|pool|)) or the k heaviest for an answer. No
// level sorts.
//
// Same answers, same failures as probing first: a level fails exactly
// when the pivot route fails AND the probe hits its budget, whichever
// runs first, and both routes yield a heaviest-closed pool with the
// same top-min(f, |q(R_j)|); by induction over the levels, so does the
// whole chain. Cost: each level issues at most two monitored queries
// (the fetch, then the probe only when the fetch failed), each
// O(Q_pri + f/B), as probing first does in the worst case — the
// O(Q_pri * log n + k/B) bound of Theorem 1 is unchanged. A wide
// predicate (|q(R_j)| > 4f) costs one fetch per level and no discarded
// probe; a narrow one still issues one query per level, where a level-0
// probe alone would have answered (EXPERIMENTS.md E30 measures both).

#ifndef TOPK_CORE_TOP_F_H_
#define TOPK_CORE_TOP_F_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/core_set.h"
#include "core/factory.h"
#include "core/problem.h"
#include "core/sink.h"
#include "trace/tracer.h"

namespace topk {

template <typename Problem, typename Pri>
class TopFChain {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;

  // Builds the chain on `data`. `f` is Theorem 1's core-set parameter
  // (already clamped by the caller to be >= the Lemma 2 rank);
  // `constant_scale` is forwarded to the core-set builder; `factory`
  // constructs a Pri from a vector of elements (see core/factory.h).
  template <typename Factory = DirectFactory<Pri>>
  TopFChain(std::vector<Element> data, size_t f, double constant_scale,
            Rng* rng, size_t max_core_set_attempts,
            const Factory& factory = {})
      : f_(f), scale_(constant_scale) {
    TOPK_CHECK(f_ >= 1);
    std::vector<Element> current = std::move(data);
    while (true) {
      const size_t n_j = current.size();
      std::vector<Element> next;
      const bool bottom = n_j <= 4 * f_;
      if (!bottom) {
        next = BuildCoreSet(current, static_cast<double>(f_),
                            Problem::kLambda, scale_, rng,
                            max_core_set_attempts);
      }
      levels_.push_back(Level{factory(std::move(current)), n_j});
      if (bottom) break;
      // Guard against a non-shrinking chain (possible only with
      // aggressive constant_scale ablation): stop; queries that bottom
      // out here report failure and the caller falls back.
      if (next.size() >= n_j) break;
      current = std::move(next);
    }
  }

  size_t f() const { return f_; }
  size_t num_levels() const { return levels_.size(); }
  size_t level_size(size_t j) const { return levels_[j].n; }

  // The prioritized structure on the full input set (level 0) — shared
  // with the enclosing CoreSetTopK so the input is indexed once.
  const Pri& level0() const { return levels_.front().pri; }

  // Audit hook (src/audit/, -DTOPK_AUDIT=ON test sweeps): Lemma 2
  // nesting — every core-set level is a strictly smaller subset of its
  // parent, each level's structure indexes exactly the recorded count,
  // and the chain bottoms out at <= 4f elements unless the non-shrinking
  // guard truncated it (then the last level is the one that refused to
  // shrink). Aborts via TOPK_CHECK on violation.
  void AuditInvariants() const {
    TOPK_CHECK(f_ >= 1);
    TOPK_CHECK(!levels_.empty());
    for (size_t j = 0; j < levels_.size(); ++j) {
      TOPK_CHECK_EQ(levels_[j].pri.size(), levels_[j].n);
      if (j > 0) TOPK_CHECK_LT(levels_[j].n, levels_[j - 1].n);
    }
    // Every level above the bottom must have been worth splitting.
    for (size_t j = 0; j + 1 < levels_.size(); ++j) {
      TOPK_CHECK_LT(4 * f_, levels_[j].n);
    }
  }

  // A heaviest-closed candidate pool of q(S), unsorted, holding the
  // top-min(f, |q(S)|) of q(S) (see the pool contract above), borrowed
  // from `scratch`; nullopt when an unlucky core-set defeated the
  // algorithm (caller must fall back). The whole recursion works out of
  // the arena: the steady state borrows one buffer at a time, so a warm
  // arena serves any chain depth with zero allocations.
  std::optional<ScratchVec<Element>> QueryPool(
      const Predicate& q, Scratch* scratch, QueryStats* stats,
      trace::Tracer* tracer = nullptr) const {
    return QueryLevel(0, q, scratch, stats, tracer);
  }

 private:
  struct Level {
    Pri pri;
    size_t n;  // number of elements indexed at this level
  };

  std::optional<ScratchVec<Element>> QueryLevel(
      size_t j, const Predicate& q, Scratch* scratch, QueryStats* stats,
      trace::Tracer* tracer) const {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    const Level& level = levels_[j];
    trace::Span span(tracer, "topf_level", stats);
    span.Arg("level", j);
    span.Arg("n", level.n);
    if (j + 1 < levels_.size()) {
      std::optional<ScratchVec<Element>> deeper =
          QueryLevel(j + 1, q, scratch, stats, tracer);
      const size_t rank = CoreSetRank(level.n, Problem::kLambda, scale_);
      if (deeper.has_value() && deeper->size() >= rank) {
        const double tau = NthHeaviestWeight(&*deeper, rank);
        deeper.reset();  // only tau survives; recycle the pool for the fetch
        // Lemma 2: e has weight rank in [f, 4f] within q(R_j) w.h.p.;
        // allow 2x slack before declaring the sample bad.
        MonitoredPool<Element> fetched = MonitoredQuery(
            level.pri, q, tau, 8 * f_ + 1, scratch, stats, tracer);
        if (!fetched.hit_budget && fetched.elements.size() >= f_) {
          return std::move(fetched.elements);
        }
      }
    }  // a failed route's pools return to the arena before the probe
    MonitoredPool<Element> probe = MonitoredQuery(
        level.pri, q, kNegInf, 4 * f_ + 1, scratch, stats, tracer);
    if (probe.hit_budget) return std::nullopt;
    return std::move(probe.elements);
  }

  size_t f_;
  double scale_;
  std::vector<Level> levels_;
};

}  // namespace topk

#endif  // TOPK_CORE_TOP_F_H_
