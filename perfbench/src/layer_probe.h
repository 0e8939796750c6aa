// Traced-run probes of the layers under one engine: serve dispatch,
// the reduction (core), the substrates (range1d) and k-selection
// (common). Each probe calls the layer's public function directly on a
// fixed request set, so its counts repeat exactly for a given seed.

#ifndef PERFBENCH_LAYER_PROBE_H_
#define PERFBENCH_LAYER_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common.h"
#include "common/kselect.h"
#include "common/stats.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "report.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "spans.h"

namespace perfbench {

struct ProbeResult {
  bool correct = true;
  double dispatch_us = 0.0;   // median one-request batch matching nothing
  double core_mean_us = 0.0;  // mean per-request core time
};

// A predicate no element matches (all x lie in [0, 1)).
inline Range1D EmptyRange() { return Range1D{2.0, 3.0}; }

template <typename S>
ProbeResult ProbeLayers(const S& structure, const Oracle& oracle,
                        const std::vector<Point1D>& data,
                        const std::vector<serve::Request<Range1D>>& requests,
                        SpanLog* log, LayerValues* out) {
  using Engine = serve::QueryEngine<S>;
  using Request = serve::Request<Range1D>;
  ProbeResult res;
  std::vector<Request> one(1);
  std::vector<typename Engine::Result> slots;

  // serve: a one-request batch whose predicate matches nothing is pure
  // engine dispatch (wake, cursor, barrier) plus an empty structure call.
  {
    Engine engine(&structure, typename Engine::Options{.num_threads = 1});
    one[0] = Request{EmptyRange(), 16};
    Samples dispatch;
    for (size_t i = 0; i < 2200; ++i) {
      const auto t0 = Clock::now();
      engine.QueryBatchInto(one, &slots);
      const auto t1 = Clock::now();
      if (i < 200) continue;  // warm-up
      log->Record("serve.dispatch", i, t0, t1);
      dispatch.Add(Micros(t1 - t0));
      if (!slots[0].ok() || !slots[0].elements.empty()) res.correct = false;
    }
    res.dispatch_us = dispatch.Median();
  }

  // core: one-request batches on a one-worker engine, minus dispatch;
  // QueryStats deltas come from the engine's own Metrics snapshot.
  serve::Metrics metrics;
  std::vector<double> tau(requests.size(),
                          -std::numeric_limits<double>::infinity());
  std::vector<uint64_t> expected(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    expected[i] =
        Fingerprint(oracle.TopK(requests[i].predicate, requests[i].k));
  }
  Samples core_us;
  {
    Engine engine(&structure, typename Engine::Options{.num_threads = 1},
                  &metrics);
    engine.Warmup(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      one[0] = requests[i];
      const auto t0 = Clock::now();
      engine.QueryBatchInto(one, &slots);
      const auto t1 = Clock::now();
      log->Record("core.request", i, t0, t1);
      core_us.Add(Micros(t1 - t0) - res.dispatch_us);
      const std::vector<Point1D>& got = slots[0].elements;
      if (got.size() == requests[i].k) tau[i] = got.back().weight;
      if (!slots[0].ok() || Fingerprint(got) != expected[i]) {
        res.correct = false;
      }
    }
  }
  const serve::MetricsSnapshot snap = metrics.Snapshot();
  const double reqs = static_cast<double>(requests.size());
  res.core_mean_us = core_us.Mean();
  (*out)["core.request_us_p50"] = core_us.Median();
  (*out)["core.request_us_p99"] = core_us.Percentile(99.0);
  (*out)["core.hist_request_us_p50"] = snap.latency.PercentileNs(50.0) / 1e3;
  (*out)["core.rounds_per_req"] = Ratio(double(snap.stats.rounds), reqs);
  (*out)["core.max_queries_per_req"] =
      Ratio(double(snap.stats.max_queries), reqs);
  (*out)["core.prioritized_queries_per_req"] =
      Ratio(double(snap.stats.prioritized_queries), reqs);
  (*out)["core.nodes_visited_per_req"] =
      Ratio(double(snap.stats.nodes_visited), reqs);
  (*out)["core.elements_emitted_per_req"] =
      Ratio(double(snap.stats.elements_emitted), reqs);
  (*out)["core.fallbacks"] = double(snap.stats.fallbacks);
  (*out)["core.full_scans"] = double(snap.stats.full_scans);
  (*out)["core.emit_yield"] = Ratio(double(snap.stats.results_returned),
                                    double(snap.stats.elements_emitted));
  (*out)["serve.dispatch_us"] = res.dispatch_us;

  // range1d: the substrates alone. The prioritized fetch runs at the
  // request's k-th answer weight, i.e. the pure Q_pri + k cost.
  const topk::range1d::PrioritySearchTree pst(data);
  const topk::range1d::RangeMax rmax(data);
  std::vector<Point1D> buf;
  buf.reserve(data.size());
  topk::QueryStats pri_stats;
  Samples pri_us, max_us, select_us;
  uint64_t sink = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Range1D q = requests[i].predicate;
    buf.clear();
    auto t0 = Clock::now();
    pst.QueryPrioritized(
        q, tau[i],
        [&buf](const Point1D& p) {
          buf.push_back(p);
          return true;
        },
        &pri_stats);
    auto t1 = Clock::now();
    log->Record("range1d.pri_fetch", i, t0, t1);
    pri_us.Add(Micros(t1 - t0));
    sink += buf.size();

    t0 = Clock::now();
    const auto best = rmax.QueryMax(q);
    t1 = Clock::now();
    log->Record("range1d.max", i, t0, t1);
    max_us.Add(Micros(t1 - t0));
    if (best.has_value()) sink += best->id;

    // common: k-selection over q(D), materialised untimed.
    std::vector<Point1D> pool = oracle.Matching(q);
    t0 = Clock::now();
    topk::SelectTopK(&pool, requests[i].k);
    t1 = Clock::now();
    log->Record("common.select", i, t0, t1);
    select_us.Add(Micros(t1 - t0));
    if (Fingerprint(pool) != expected[i]) {
      res.correct = false;
    }
  }
  // Keeps the probed calls' results observable, so none is elided.
  asm volatile("" : : "g"(sink) : "memory");
  (*out)["range1d.pri_fetch_us_per_req"] = pri_us.Mean();
  (*out)["range1d.pri_nodes_per_req"] =
      Ratio(double(pri_stats.nodes_visited), reqs);
  (*out)["range1d.max_us_per_req"] = max_us.Mean();
  (*out)["common.select_us_per_req"] = select_us.Mean();
  return res;
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PROBE_H_
