// Prioritized-query issuance: the ONE place its cost is charged
// (Section 3.2 of the paper for the monitored variant).
//
// QueryStats::prioritized_queries and ::elements_emitted are charged
// here, at ISSUANCE — by exactly two entry points, IssuePrioritized and
// MonitoredQuery — and nowhere else. Structure implementations of
// QueryPrioritized (and transparent wrappers like
// audit::CheckedPrioritized, or synthesized implementations like
// TopKToPrioritized) charge only their structural work (nodes_visited)
// — if they also charged issuance the counters would double-count every
// internal delegation. Callers that invoke a structure's
// QueryPrioritized directly therefore go through IssuePrioritized; the
// reductions go through MonitoredQuery, the budgeted variant.
//
// The reductions never count |q(D)| directly. Instead they issue a
// prioritized query with a *budget*: collect elements until either the
// query terminates by itself (the result is complete) or budget
// elements have been fetched (proving |result| >= budget).
// MonitoredQuery packages that device.

#ifndef TOPK_CORE_SINK_H_
#define TOPK_CORE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/scratch.h"
#include "common/stats.h"
#include "trace/tracer.h"

namespace topk {

// Issues s.QueryPrioritized(q, tau, emit, stats) and charges the
// issuance: one prioritized query plus every element the structure
// emitted (including ones the sink rejected or k-selection later
// discards). Use this instead of calling QueryPrioritized directly
// whenever the call should be visible in QueryStats.
template <typename S, typename Pred, typename Emit,
          typename E = typename S::Element>
void IssuePrioritized(const S& s, const Pred& q, double tau, Emit&& emit,
                      QueryStats* stats,
                      trace::Tracer* tracer = nullptr) {
  trace::Span span(tracer, "prioritized_query", stats);
  if (stats != nullptr) ++stats->prioritized_queries;
  uint64_t emitted = 0;
  s.QueryPrioritized(
      q, tau,
      [&emitted, &emit](const E& e) {
        ++emitted;
        return emit(e);
      },
      stats);
  AddEmitted(stats, emitted);
}

template <typename E>
struct MonitoredPool {
  // Elements fetched, in structure emission order. When hit_budget is
  // false this is the complete set {e in q(D) : w(e) >= tau}; when true
  // it is an arbitrary budget-sized subset of it (the query was cut off).
  // The buffer (capacity included) goes back to the arena when the
  // ScratchVec dies.
  ScratchVec<E> elements;
  bool hit_budget = false;
};

// Runs a budget-monitored prioritized query: collects at most `budget`
// elements into a pool borrowed from `scratch`. Typical use per the
// paper: budget = 4K + 1 proves |{w >= tau} cap q(D)| > 4K whenever
// hit_budget is true. The span records the budget and whether it was
// hit.
//
// Charges issuance itself instead of delegating to IssuePrioritized:
// the forwarding layer that counting through a wrapped emit adds sits
// on the per-emission hot loop — the hottest loop in the tree when
// Theorem 1's f >= n degenerates to monitored full fetches — and the
// budget cut-off element is collected anyway, so collected == emitted
// and the counters are identical either way (pinned by
// tests/stats_accounting_test.cc).
template <typename S, typename Pred, typename E = typename S::Element>
MonitoredPool<E> MonitoredQuery(const S& s, const Pred& q, double tau,
                                size_t budget, Scratch* scratch,
                                QueryStats* stats,
                                trace::Tracer* tracer = nullptr) {
  trace::Span span(tracer, "monitored_query", stats);
  span.Arg("budget", budget);
  MonitoredPool<E> out{scratch->Borrow<E>(), false};
  if (budget == 0) {
    out.hit_budget = true;
    span.Arg("hit_budget", 1);
    return out;
  }
  out.elements.reserve(budget < 1024 ? budget : 1024);
  if (stats != nullptr) ++stats->prioritized_queries;
  std::vector<E>& pool = out.elements.vec();
  s.QueryPrioritized(
      q, tau,
      [&pool, budget](const E& e) {
        pool.push_back(e);
        return pool.size() < budget;
      },
      stats);
  AddEmitted(stats, pool.size());
  out.hit_budget = pool.size() >= budget;
  span.Arg("hit_budget", out.hit_budget ? 1 : 0);
  return out;
}

}  // namespace topk

#endif  // TOPK_CORE_SINK_H_
