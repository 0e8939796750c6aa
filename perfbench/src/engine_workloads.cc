// serve_mixed and deep_scan: one static structure behind one
// serve::QueryEngine, driven closed-loop in batches by one thread.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/core_set_topk.h"
#include "core/sampled_topk.h"
#include "layer_probe.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "report.h"
#include "serve/engine.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using topk::range1d::PrioritySearchTree;
using topk::range1d::Range1DProblem;
using topk::range1d::RangeMax;
using Request = serve::Request<Range1D>;

constexpr size_t kN = size_t{1} << 17;
constexpr size_t kSetupReps = 31;

struct EngineSpec {
  size_t workers;
  size_t batch;
  size_t pool;        // distinct requests, cycled through
  size_t probe;       // requests in the traced layer probes
  size_t check_cap;   // kept answers re-checked by brute force
  size_t overhead_chunk;  // calls per chunk of the traced run's pairs
  Request (*make)(topk::Rng*, size_t i);
};

// serve_mixed: uniform ranges; k = 16, every 16th request k = 1024.
Request MixedRequest(topk::Rng* rng, size_t i) {
  double lo = rng->NextDouble(), hi = rng->NextDouble();
  if (lo > hi) std::swap(lo, hi);
  return Request{Range1D{lo, hi}, i % 16 == 15 ? size_t{1024} : size_t{16}};
}

// deep_scan: wide ranges, k log-uniform over 2^10..2^16.
Request DeepRequest(topk::Rng* rng, size_t) {
  const double lo = rng->NextDouble() * 0.2;
  const double hi = 0.8 + rng->NextDouble() * 0.2;
  const double k = std::exp2(10.0 + 6.0 * rng->NextDouble());
  return Request{Range1D{lo, hi}, static_cast<size_t>(k)};
}

template <typename S>
void RunEngine(const Args& args, const EngineSpec& spec, Report* report,
              LayerValues* layers) {
  using Engine = serve::QueryEngine<S>;
  topk::Rng data_rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::vector<Point1D> data = MakePoints(kN, &data_rng);
  topk::Rng req_rng(args.seed * 0x9e3779b97f4a7c15ULL + 2);
  std::vector<Request> pool(spec.pool);
  for (size_t i = 0; i < spec.pool; ++i) pool[i] = spec.make(&req_rng, i);
  std::vector<std::vector<Request>> batches;
  for (size_t i = 0; i + spec.batch <= spec.pool; i += spec.batch) {
    batches.emplace_back(pool.begin() + static_cast<long>(i),
                         pool.begin() + static_cast<long>(i + spec.batch));
  }

  // The machine's speed is sampled through setup and the window.
  SpeedReference speed;
  speed.Start();

  // Setup: structure build plus engine start, repeated; the last one
  // serves. The copy of the inputs handed to the constructor is made
  // outside the clock.
  const Clock::time_point origin = Clock::now();
  std::atomic<bool> tracing{false};
  SpanLog log(origin, &tracing, 1 << 20);
  Samples setup_s, build_s;
  std::unique_ptr<S> structure;
  std::unique_ptr<Engine> engine;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    structure.reset();
    std::vector<Point1D> input = data;
    const auto t0 = Clock::now();
    structure = std::make_unique<S>(std::move(input));
    const auto t1 = Clock::now();
    engine = std::make_unique<Engine>(
        structure.get(), typename Engine::Options{.num_threads = spec.workers});
    const auto t2 = Clock::now();
    setup_s.Add(Seconds(t2 - t0));
    build_s.Add(Seconds(t1 - t0));
  }

  // Warm-up: every worker's scratch at its high-water mark (the pool's
  // heaviest requests), then an untimed closed loop.
  std::vector<Request> heavy = pool;
  std::sort(heavy.begin(), heavy.end(),
            [](const Request& a, const Request& b) { return a.k > b.k; });
  heavy.resize(spec.batch);
  engine->Warmup(heavy);
  std::vector<typename Engine::Result> results;
  size_t b = 0;
  for (auto until = Clock::now() + std::chrono::duration<double>(
                                       kWarmupSeconds);
       Clock::now() < until; ++b) {
    engine->QueryBatchInto(batches[b % batches.size()], &results);
  }

  // Measured window. A traced run alternates untraced and traced chunks
  // of calls, both chunks of a pair serving the same batches.
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(args.seconds);
  Window reads(static_cast<size_t>(args.seconds * 2000) + 1,
               static_cast<uint32_t>(spec.batch));
  OverheadPairs overhead(start, spec.overhead_chunk);
  std::vector<KeptAnswer> kept;
  uint64_t requests = 0, not_ok = 0;
  const size_t b0 = b;
  Clock::time_point last = start;
  for (uint64_t seq = 0; last < end; ++seq) {
    if (args.trace) tracing.store(overhead.Traced(seq));
    const size_t at = args.trace ? b0 + overhead.Replay(seq) : b0 + seq;
    const std::vector<Request>& batch = batches[at % batches.size()];
    ScopedSpan read(&log, "read", seq);
    const auto t0 = Clock::now();
    engine->QueryBatchInto(batch, &results);
    const auto t1 = Clock::now();
    log.Record("serve.batch", seq, t0, t1);
    reads.Add(Seconds(t1 - start), Micros(t1 - t0));
    overhead.Done(seq, t1);
    requests += batch.size();
    for (const auto& r : results) not_ok += r.ok() ? 0 : 1;
    if (seq % 4 == 0) {
      const size_t j = (seq / 4) % batch.size();
      kept.push_back({batch[j].predicate, batch[j].k,
                      Fingerprint(results[j].elements), {0, 0}});
    }
    last = t1;
  }
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate
  speed.Stop();
  report->attempted = requests;
  report->failed = not_ok;
  const Window::Stats w = reads.Compute();

  // Correctness: brute force over the filtered, sorted data.
  const Oracle oracle(data);
  for (size_t i : Spread(kept.size(), spec.check_cap)) {
    const KeptAnswer& a = kept[i];
    if (Fingerprint(oracle.TopK(a.range, a.k)) != a.fingerprint) {
      std::fprintf(stderr, "wrong answer: range [%.17g, %.17g] k=%zu\n",
                   a.range.lo, a.range.hi, a.k);
      report->correct = false;
    }
  }

  if (!args.trace) {
    PrintSlices(w);
    AddScaledTimings(w, setup_s, speed, report);
    report->Add("peak_rss_mb", peak_rss_mb, "MiB");
    report->AddExtra("error_rate", Ratio(double(not_ok), double(requests)),
                     "ratio");
    report->AddExtra("build_s", build_s.Median(), "s", build_s.size());
    return;
  }

  // Traced run: tracing overhead, span-derived serve figures, probes.
  tracing.store(true);
  (*layers)["trace.overhead_pct"] = overhead.Percent();
  (*layers)["e2e.error_rate"] = Ratio(double(not_ok), double(requests));
  (*layers)["e2e.read_p99_us"] = w.p99_us;
  (*layers)["driver.speed_ref_ms"] = speed.ms();
  (*layers)["serve.not_ok"] = double(not_ok);
  (*layers)["core.build_s"] = build_s.Median();
  std::vector<Request> probe(pool.begin(),
                             pool.begin() + static_cast<long>(spec.probe));
  const ProbeResult pr =
      ProbeLayers(*structure, oracle, data, probe, &log, layers);
  if (!pr.correct) report->correct = false;
  const std::vector<uint64_t> self = SelfTimesNs(log.spans());
  const SpanSummary batch_spans = Summarize(log.spans(), self, "serve.batch");
  const SpanSummary read_spans = Summarize(log.spans(), self, "read");
  (*layers)["driver.read_self_us"] = read_spans.self_us.Mean();
  // The batch's makespan holds ceil(batch / workers) requests on its
  // busiest worker; what is left over is the engine's own time.
  const size_t per_worker = (spec.batch + spec.workers - 1) / spec.workers;
  (*layers)["serve.batch_self_us"] =
      batch_spans.dur_us.Mean() - pr.core_mean_us * double(per_worker);
  WriteSpans(args, log.spans(), self);
}

}  // namespace

void RunServeMixed(const Args& args, Report* report, LayerValues* layers) {
  using Thm2 = topk::SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
  const EngineSpec spec{.workers = 3,
                        .batch = 64,
                        .pool = 64 * 256,
                        .probe = 2048,
                        .check_cap = 300,
                        .overhead_chunk = 200,
                        .make = MixedRequest};
  RunEngine<Thm2>(args, spec, report, layers);
}

void RunDeepScan(const Args& args, Report* report, LayerValues* layers) {
  using Thm1 = topk::CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  const EngineSpec spec{.workers = 2,
                        .batch = 4,
                        .pool = 4 * 4096,
                        .probe = 128,
                        .check_cap = 48,
                        .overhead_chunk = 50,
                        .make = DeepRequest};
  RunEngine<Thm1>(args, spec, report, layers);
}

}  // namespace perfbench
