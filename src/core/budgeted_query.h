// Cost-monitored top-k prefix queries (the serving layer's degradation
// primitive).
//
// The paper's reductions never run unbounded work: Theorem 1 replaces
// counting with prioritized queries that stop at a budget (core/sink.h's
// MonitoredQuery). BudgetedTopK lifts the same idea one level up, to
// whole top-k queries: answer top-k' for k' = 1, 2, 4, ... doubling
// toward k, consulting a stop predicate between stages. Because every
// result is sorted heaviest-first under the strict (weight, id) order,
// the top-k' answer IS the length-k' prefix of the top-k answer — so
// stopping early yields a *correct prefix* of the true result, never a
// wrong or arbitrary subset. Geometric doubling keeps the total work
// within a constant factor of the final stage's for structures whose
// query cost grows at least linearly in k.
//
// The stop predicate is consulted BETWEEN stages (cooperative, never
// mid-query), so each stage's cost is the monitoring granularity: a
// budget can be overshot by at most one stage, exactly like the
// paper's budget-(4K+1) monitored queries overshoot by one emission.

#ifndef TOPK_CORE_BUDGETED_QUERY_H_
#define TOPK_CORE_BUDGETED_QUERY_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/scratch.h"
#include "common/stats.h"
#include "core/problem.h"
#include "trace/tracer.h"

namespace topk {

template <typename E>
struct BudgetedResult {
  // Heaviest-first. A prefix of the true top-k when complete is false;
  // the full top-k when complete is true.
  std::vector<E> elements;
  bool complete = false;
  size_t stages = 0;  // top-k' queries issued
};

// Outcome of the in-place form: the elements live in the caller's
// vector, so only the verdict travels back.
struct BudgetedRun {
  bool complete = false;
  size_t stages = 0;  // top-k' queries issued
};

// Answers one top-k query into *out (replacing its contents) through
// the best entry point `s` offers: the reductions' scratch-threaded,
// traced QueryInto, else the Query every TopKStructure has. The one
// dispatch point for callers generic over the structure (the stages
// below, serve::QueryEngine).
template <typename S>
  requires TopKStructure<S>
void TopKQueryInto(const S& s, const typename S::Predicate& q, size_t k,
                   Scratch* scratch, std::vector<typename S::Element>* out,
                   QueryStats* stats, trace::Tracer* tracer) {
  if constexpr (requires {
                  s.QueryInto(q, k, scratch, out, stats, tracer);
                }) {
    s.QueryInto(q, k, scratch, out, stats, tracer);
  } else {
    *out = s.Query(q, k, stats);
  }
}

// Runs staged top-k' queries against `s` until the answer is complete
// (k' reached k, or the structure ran out of matches) or should_stop()
// returns true between stages, writing each stage's answer into *out —
// ONE buffer reused across the whole doubling ladder (and, when the
// caller recycles it, across requests). should_stop is any callable
// examining external state — a cost tally, a deadline clock, a
// cancellation flag. Each stage goes through TopKQueryInto, so
// structures with the scratch-threaded QueryInto are served
// allocation-free.
template <typename S, typename StopFn>
  requires TopKStructure<S>
BudgetedRun BudgetedTopKInto(const S& s, const typename S::Predicate& q,
                             size_t k, StopFn&& should_stop,
                             Scratch* scratch,
                             std::vector<typename S::Element>* out,
                             QueryStats* stats = nullptr,
                             trace::Tracer* tracer = nullptr) {
  trace::Span span(tracer, "budgeted_query", stats);
  span.Arg("k", k);
  BudgetedRun run;
  out->clear();
  if (k == 0) {
    run.complete = true;
    return run;
  }
  size_t kp = 1;
  for (;;) {
    ++run.stages;
    {
      trace::Span stage(tracer, "budgeted_stage", stats);
      stage.Arg("kp", kp);
      TopKQueryInto(s, q, kp, scratch, out, stats, tracer);
    }
    if (kp >= k || out->size() < kp) {
      // Either the full k was answered or the structure has fewer than
      // kp matches — in both cases this is the complete answer.
      run.complete = true;
      span.Arg("stages", run.stages);
      return run;
    }
    if (should_stop()) {
      span.Arg("stages", run.stages);
      span.Arg("stopped", 1);
      return run;  // correct top-kp prefix, flagged
    }
    kp = std::min(k, kp * 2);
  }
}

// Value-returning compatibility form: owns a throwaway Scratch, so each
// call may allocate (first-touch pool growth plus the returned vector).
// The serving engine uses BudgetedTopKInto with its per-worker arena.
template <typename S, typename StopFn>
  requires TopKStructure<S>
BudgetedResult<typename S::Element> BudgetedTopK(
    const S& s, const typename S::Predicate& q, size_t k,
    StopFn&& should_stop, QueryStats* stats = nullptr,
    trace::Tracer* tracer = nullptr) {
  BudgetedResult<typename S::Element> out;
  Scratch scratch;
  const BudgetedRun run =
      BudgetedTopKInto(s, q, k, should_stop, &scratch, &out.elements,
                       stats, tracer);
  out.complete = run.complete;
  out.stages = run.stages;
  return out;
}

}  // namespace topk

#endif  // TOPK_CORE_BUDGETED_QUERY_H_
