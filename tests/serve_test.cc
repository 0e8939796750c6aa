// The serving layer: latency histogram quantiles, metrics registry and
// JSON export, the thread-shareability concept, and the batched query
// engine — whose results must be exactly the single-threaded,
// brute-force-validated answers at every thread count.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "em/em_range1d.h"
#include "range1d/count_tree.h"
#include "range1d/direct_topk.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/histogram.h"
#include "serve/metrics.h"
#include "serve/result.h"
#include "serve/shareable.h"
#include "serve/thread_pool.h"
#include "test_util.h"
#include "trace/tracer.h"

namespace topk {
namespace {

using range1d::CountTree;
using range1d::HeapSelectTopK;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;
using serve::LatencyHistogram;
using serve::MetricsSnapshot;

// --- Shareability concept -----------------------------------------------

using Thm1 = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
using Baseline = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
using Counting = CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>;

static_assert(serve::ShareableTopKStructure<Thm1>);
static_assert(serve::ShareableTopKStructure<Thm2>);
static_assert(serve::ShareableTopKStructure<Baseline>);
static_assert(serve::ShareableTopKStructure<Counting>);
static_assert(serve::ShareableTopKStructure<ScanTopK<Range1DProblem>>);
static_assert(serve::ShareableTopKStructure<HeapSelectTopK>);

// EM substrates mutate their BufferPool on every (even read-only)
// query; they and every reduction stacked on them must be rejected.
static_assert(serve::UsesExternalMemory<em::EmBPlusTree>());
static_assert(serve::UsesExternalMemory<em::EmRange1dPrioritized>());
static_assert(!serve::ShareableTopKStructure<
              CoreSetTopK<Range1DProblem, em::EmRange1dPrioritized>>);
static_assert(
    !serve::ShareableTopKStructure<SampledTopK<
        Range1DProblem, em::EmRange1dPrioritized, em::EmBPlusTree>>);

// --- LatencyHistogram ----------------------------------------------------

TEST(LatencyHistogram, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.PercentileNs(50.0), 0.0);
}

TEST(LatencyHistogram, ExactStatsAndBucketedQuantiles) {
  LatencyHistogram h;
  // 100 values: 1..100.
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min_ns(), 1u);
  EXPECT_EQ(h.max_ns(), 100u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 50.5);
  // Log-bucketed estimates: within a factor of 2 of the true quantile.
  EXPECT_GE(h.PercentileNs(50.0), 32.0);
  EXPECT_LE(h.PercentileNs(50.0), 64.0);
  EXPECT_GE(h.PercentileNs(99.0), 64.0);
  EXPECT_LE(h.PercentileNs(99.0), 100.0);  // clamped to the exact max
  // p0/p100 clamp to the exactly tracked extremes.
  EXPECT_EQ(h.PercentileNs(0.0), 1.0);
  EXPECT_EQ(h.PercentileNs(100.0), 100.0);
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  LatencyHistogram h;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) h.Record(rng.Below(1u << 20));
  double prev = 0.0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    const double v = h.PercentileNs(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  for (uint64_t v : {5u, 80u, 3000u}) {
    a.Record(v);
    both.Record(v);
  }
  for (uint64_t v : {1u, 1u << 16}) {
    b.Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min_ns(), both.min_ns());
  EXPECT_EQ(a.max_ns(), both.max_ns());
  EXPECT_DOUBLE_EQ(a.mean_ns(), both.mean_ns());
  for (double p : {10.0, 50.0, 95.0}) {
    EXPECT_DOUBLE_EQ(a.PercentileNs(p), both.PercentileNs(p));
  }
}

// Property: merging an empty histogram — default-constructed or freshly
// Reset() (whose min/max sit at the UINT64_MAX/0 sentinels) — is an
// exact no-op in either direction. The sentinels must never clobber the
// exactly tracked min/max nor leak into the percentile clamps; this is
// the engine's per-batch tally recycling (Reset then Merge) in
// miniature.
TEST(LatencyHistogram, MergeWithEmptyOrResetIsANoOp) {
  Rng rng(33);
  const double kPs[] = {0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0};
  for (int trial = 0; trial < 50; ++trial) {
    LatencyHistogram h;
    const size_t n = 1 + rng.Below(200);
    for (size_t i = 0; i < n; ++i) {
      // Log-uniform spread so sparse buckets and extremes occur.
      h.Record(rng.Below(uint64_t{1} << (1 + rng.Below(24))));
    }
    const LatencyHistogram before = h;

    LatencyHistogram empty;  // never recorded into
    LatencyHistogram reset;  // recorded into, then wiped
    for (int i = 0; i < 5; ++i) reset.Record(rng.Below(1u << 20));
    reset.Reset();

    h.Merge(empty);
    h.Merge(reset);
    EXPECT_EQ(h.count(), before.count());
    EXPECT_EQ(h.min_ns(), before.min_ns());
    EXPECT_EQ(h.max_ns(), before.max_ns());
    EXPECT_DOUBLE_EQ(h.mean_ns(), before.mean_ns());
    for (double p : kPs) {
      EXPECT_DOUBLE_EQ(h.PercentileNs(p), before.PercentileNs(p));
    }

    // Other direction: the sentinels of the empty ACCUMULATOR must be
    // overwritten by the merged-in data, not min/max'd into it.
    for (LatencyHistogram* acc : {&empty, &reset}) {
      acc->Merge(before);
      EXPECT_EQ(acc->count(), before.count());
      EXPECT_EQ(acc->min_ns(), before.min_ns());
      EXPECT_EQ(acc->max_ns(), before.max_ns());
      EXPECT_DOUBLE_EQ(acc->mean_ns(), before.mean_ns());
      for (double p : kPs) {
        EXPECT_DOUBLE_EQ(acc->PercentileNs(p), before.PercentileNs(p));
      }
    }
  }
}

// --- Metrics / JSON export ----------------------------------------------

TEST(Metrics, JsonContainsEveryQueryStatsField) {
  serve::Metrics metrics;
  MetricsSnapshot s;
  s.queries = 3;
  s.batches = 1;
  s.stats.nodes_visited = 42;
  s.latency.Record(1000);
  metrics.Absorb(s);
  const std::string json = metrics.ToJson();
  // The export iterates QueryStats::ForEachField, so a counter added to
  // QueryStats must show up here with no serve-layer change.
  QueryStats::ForEachField([&json](const char* name, auto) {
    EXPECT_NE(json.find(std::string("\"") + name + "\":"),
              std::string::npos)
        << "missing stats field in JSON: " << name;
  });
  EXPECT_NE(json.find("\"queries\":3"), std::string::npos);
  EXPECT_NE(json.find("\"nodes_visited\":42"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Metrics, AbsorbAccumulates) {
  serve::Metrics metrics;
  for (int i = 0; i < 3; ++i) {
    MetricsSnapshot s;
    s.queries = 10;
    s.batches = 1;
    s.stats.full_scans = 2;
    metrics.Absorb(s);
  }
  const MetricsSnapshot total = metrics.Snapshot();
  EXPECT_EQ(total.queries, 30u);
  EXPECT_EQ(total.batches, 3u);
  EXPECT_EQ(total.stats.full_scans, 6u);
}

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryWorkerEachRegion) {
  serve::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<int> hits(4, 0);
  for (int round = 1; round <= 3; ++round) {
    pool.RunOnAll([&hits](size_t w) { ++hits[w]; });
    for (int h : hits) EXPECT_EQ(h, round);
  }
}

// The calling thread is worker 0; every other worker is its own parked
// thread.
TEST(ThreadPool, CallerRunsWorkerZero) {
  serve::ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::vector<std::thread::id> ran_on(3);
  pool.RunOnAll(
      [&ran_on](size_t w) { ran_on[w] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_NE(ran_on[1], ran_on[0]);
  EXPECT_NE(ran_on[2], ran_on[0]);
  EXPECT_NE(ran_on[1], ran_on[2]);
}

// A pool of 1 spawns no thread: the region is a plain call that has
// finished when RunOnAll returns.
TEST(ThreadPool, OneWorkerPoolRunsInline) {
  serve::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  for (int round = 1; round <= 3; ++round) {
    std::thread::id ran_on;
    size_t worker = 99;
    bool finished = false;
    pool.RunOnAll([&](size_t w) {
      ran_on = std::this_thread::get_id();
      worker = w;
      finished = true;
    });
    EXPECT_TRUE(finished);
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
}

// The single-owner check fires for every pool size, the thread-free
// pool of 1 included: a region may not open another on the same pool.
TEST(ThreadPoolDeathTest, ReentrantRunOnAllAborts) {
  for (const size_t n : {size_t{1}, size_t{3}}) {
    EXPECT_DEATH(
        {
          serve::ThreadPool pool(n);
          pool.RunOnAll([&pool](size_t w) {
            if (w == 0) pool.RunOnAll([](size_t) {});
          });
        },
        "TOPK_CHECK")
        << "pool size " << n;
  }
}

// --- QueryEngine ----------------------------------------------------------

struct ServeFixture {
  std::vector<Point1D> data;
  std::vector<serve::Request<Range1D>> requests;

  explicit ServeFixture(size_t n, size_t num_requests, uint64_t seed) {
    Rng rng(seed);
    data = test::RandomPoints1D(n, &rng);
    requests.reserve(num_requests);
    for (size_t i = 0; i < num_requests; ++i) {
      double lo = rng.NextDouble(), hi = rng.NextDouble();
      if (lo > hi) std::swap(lo, hi);
      // Mixed k: mostly small, some deep.
      const size_t k = (i % 7 == 0) ? 200 : 1 + i % 16;
      requests.push_back({{lo, hi}, k});
    }
  }
};

template <typename S>
void ExpectBatchExact(const S& structure, const ServeFixture& fx,
                      size_t num_threads) {
  serve::Metrics metrics;
  serve::QueryEngine<S> engine(&structure, {.num_threads = num_threads},
                               &metrics);
  auto results = engine.QueryBatch(fx.requests);
  ASSERT_EQ(results.size(), fx.requests.size());
  uint64_t returned = 0;
  for (size_t i = 0; i < fx.requests.size(); ++i) {
    auto want = test::BruteTopK<Range1DProblem>(
        fx.data, fx.requests[i].predicate, fx.requests[i].k);
    EXPECT_TRUE(results[i].ok()) << "request " << i;
    ASSERT_EQ(test::IdsOf(results[i].elements), test::IdsOf(want))
        << "request " << i << " at " << num_threads << " threads";
    returned += results[i].elements.size();
  }
  const MetricsSnapshot m = metrics.Snapshot();
  EXPECT_EQ(m.queries, fx.requests.size());
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.stats.results_returned, returned);
  EXPECT_EQ(m.latency.count(), fx.requests.size());
}

TEST(QueryEngine, ExactAtEveryThreadCountOverEveryStructure) {
  ServeFixture fx(4000, 64, 11);
  Thm1 thm1(fx.data);
  Baseline baseline(fx.data);
  HeapSelectTopK direct(fx.data);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ExpectBatchExact(thm1, fx, threads);
    ExpectBatchExact(baseline, fx, threads);
    ExpectBatchExact(direct, fx, threads);
  }
}

// Warmup primes every worker's scratch arena concurrently (each worker
// serves every request into a throwaway slot); it must leave no trace
// in the metrics and not perturb subsequent batches. Runs under TSan
// via the tsan preset's serve sweep — Warmup and the batch path are the
// two concurrent users of the per-worker arenas.
TEST(QueryEngine, WarmupIsInvisibleAndBatchesStayExact) {
  ServeFixture fx(4000, 48, 14);
  Thm2 thm2(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Thm2> engine(&thm2, {.num_threads = 4}, &metrics);
  engine.Warmup(fx.requests);
  EXPECT_EQ(metrics.Snapshot().queries, 0u);
  std::vector<serve::QueryEngine<Thm2>::Result> results;
  engine.QueryBatchInto(fx.requests, &results);
  engine.QueryBatchInto(fx.requests, &results);  // recycled slots
  ASSERT_EQ(results.size(), fx.requests.size());
  for (size_t i = 0; i < fx.requests.size(); ++i) {
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  fx.data, fx.requests[i].predicate, fx.requests[i].k)))
        << "request " << i;
  }
  EXPECT_EQ(metrics.Snapshot().queries, 2 * fx.requests.size());
}

TEST(QueryEngine, MultiThreadMatchesSingleThreadExactly) {
  ServeFixture fx(6000, 128, 12);
  Thm2 thm2(fx.data);
  serve::QueryEngine<Thm2> one(&thm2, {.num_threads = 1});
  serve::QueryEngine<Thm2> four(&thm2, {.num_threads = 4});
  const auto a = one.QueryBatch(fx.requests);
  const auto b = four.QueryBatch(fx.requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(test::IdsOf(a[i].elements), test::IdsOf(b[i].elements))
        << "request " << i;
  }
}

// Deterministic accounting: ScanTopK charges exactly one full scan and
// n node visits per query, so the merged thread-local tallies must sum
// to exact totals no matter how requests landed on workers.
TEST(QueryEngine, ThreadLocalStatsMergeToExactTotals) {
  ServeFixture fx(500, 48, 13);
  ScanTopK<Range1DProblem> scan(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<ScanTopK<Range1DProblem>> engine(
      &scan, {.num_threads = 4}, &metrics);
  engine.QueryBatch(fx.requests);
  const MetricsSnapshot m = metrics.Snapshot();
  EXPECT_EQ(m.stats.full_scans, fx.requests.size());
  EXPECT_EQ(m.stats.nodes_visited, fx.requests.size() * fx.data.size());
}

TEST(QueryEngine, EdgeBatches) {
  ServeFixture fx(300, 4, 14);
  Thm1 thm1(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Thm1> engine(&thm1, {.num_threads = 4}, &metrics);

  // Empty batch: no queries, still one batch in the registry.
  EXPECT_TRUE(engine.QueryBatch({}).empty());
  EXPECT_EQ(metrics.Snapshot().batches, 1u);

  // Fewer requests than workers, and k = 0 answers.
  std::vector<serve::Request<Range1D>> tiny = {{{0.0, 1.0}, 5},
                                               {{0.2, 0.4}, 0}};
  auto results = engine.QueryBatch(tiny);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(test::IdsOf(results[0].elements),
            test::IdsOf(test::BruteTopK<Range1DProblem>(fx.data,
                                                        {0.0, 1.0}, 5)));
  EXPECT_TRUE(results[1].elements.empty());
  EXPECT_EQ(metrics.Snapshot().queries, 2u);

  // Batches accumulate in the shared registry.
  engine.QueryBatch(fx.requests);
  EXPECT_EQ(metrics.Snapshot().batches, 3u);
  EXPECT_EQ(metrics.Snapshot().queries, 2u + fx.requests.size());
}

// An empty structure served concurrently (degenerate but legal).
TEST(QueryEngine, EmptyStructure) {
  ScanTopK<Range1DProblem> empty({});
  serve::QueryEngine<ScanTopK<Range1DProblem>> engine(
      &empty, {.num_threads = 2});
  auto results = engine.QueryBatch({{{0.0, 1.0}, 3}, {{0.5, 0.6}, 1}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].elements.empty());
  EXPECT_TRUE(results[1].elements.empty());
}

// --- LatencyHistogram vs exact percentiles -------------------------------

// Property sweep: the log-bucketed estimate must land inside the bucket
// of the EXACT nearest-rank percentile (the rank walk visits the same
// bucket), and inside the exactly tracked [min, max] envelope.
TEST(LatencyHistogram, EstimateStaysInsideTheExactValuesBucket) {
  Rng rng(21);
  for (int trial = 0; trial < 25; ++trial) {
    LatencyHistogram h;
    std::vector<uint64_t> values;
    const size_t n = 1 + rng.Below(400);
    for (size_t i = 0; i < n; ++i) {
      // Log-uniform spread so many buckets (and sparse ones) occur.
      const uint64_t v = rng.Below(uint64_t{1} << (1 + rng.Below(24)));
      values.push_back(v);
      h.Record(v);
    }
    std::sort(values.begin(), values.end());
    for (double p :
         {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      // Same nearest-rank convention as PercentileNs.
      uint64_t rank = static_cast<uint64_t>(
          p / 100.0 * static_cast<double>(n) + 0.5);
      if (rank < 1) rank = 1;
      if (rank > n) rank = n;
      const uint64_t exact = values[rank - 1];
      const double got = h.PercentileNs(p);
      const uint64_t bw = std::bit_width(exact);
      const double lo =
          bw == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (bw - 1));
      const double hi = bw == 0 ? 1.0 : lo * 2.0;
      EXPECT_GE(got, lo) << "p" << p << " exact " << exact;
      EXPECT_LE(got, hi) << "p" << p << " exact " << exact;
      EXPECT_GE(got, static_cast<double>(values.front()));
      EXPECT_LE(got, static_cast<double>(values.back()));
    }
  }
}

// --- Slow-query log ------------------------------------------------------

TEST(MetricsSlowQueries, KeepsTopByLatencySortedDescending) {
  MetricsSnapshot s;
  for (uint64_t l : {50u, 10u, 90u, 30u, 70u, 20u, 80u, 40u, 60u, 100u,
                     5u, 95u}) {
    s.RecordSlow({l, 1, l, 0, serve::ResultStatus::kOk});
  }
  ASSERT_EQ(s.slow_queries.size(), MetricsSnapshot::kMaxSlowQueries);
  EXPECT_EQ(s.slow_queries.front().latency_ns, 100u);
  for (size_t i = 1; i < s.slow_queries.size(); ++i) {
    EXPECT_GE(s.slow_queries[i - 1].latency_ns,
              s.slow_queries[i].latency_ns);
  }
  EXPECT_EQ(s.slow_queries.back().latency_ns, 40u);  // 5..30 fell out
}

TEST(MetricsSlowQueries, MergeCombinesAndRebounds) {
  MetricsSnapshot a, b;
  for (uint64_t l = 1; l <= 8; ++l) {
    a.RecordSlow({l * 10, 1, l, 0, serve::ResultStatus::kOk});
    b.RecordSlow({l * 10 + 5, 2, l, 0, serve::ResultStatus::kDegraded});
  }
  a.Merge(b);
  ASSERT_EQ(a.slow_queries.size(), MetricsSnapshot::kMaxSlowQueries);
  // Interleaved top-8 of both logs: 85, 80, 75, 70, ...
  EXPECT_EQ(a.slow_queries.front().latency_ns, 85u);
  EXPECT_EQ(a.slow_queries.back().latency_ns, 50u);
}

TEST(MetricsSlowQueries, RenderedInJsonOnlyWhenPresent) {
  MetricsSnapshot s;
  EXPECT_EQ(serve::ToJson(s).find("slow_queries"), std::string::npos);
  s.RecordSlow({1234, 7, 3, 42, serve::ResultStatus::kDeadlineExceeded});
  const std::string json = serve::ToJson(s);
  EXPECT_NE(json.find("\"slow_queries\":[{\"latency_ns\":1234,\"batch\":7,"
                      "\"slot\":3,\"work\":42,"
                      "\"status\":\"deadline_exceeded\"}]"),
            std::string::npos);
}

// --- JSON export under saturated counters --------------------------------

// Regression: the old renderer snprintf-ed into a fixed 256-byte buffer;
// counters near UINT64_MAX (and the huge doubles they imply) truncated
// the output into malformed JSON. Every value must now render in full.
TEST(Metrics, ToJsonSurvivesSaturatedCounters) {
  constexpr uint64_t kSat = std::numeric_limits<uint64_t>::max();
  MetricsSnapshot s;
  s.queries = kSat;
  s.batches = kSat;
  s.ok = kSat;
  s.degraded = kSat;
  s.shed = kSat;
  s.deadline_exceeded = kSat;
  QueryStats::ForEachField(
      [&s](const char*, auto member) { s.stats.*member = kSat; });
  for (int i = 0; i < 4; ++i) s.latency.Record(kSat);
  for (uint64_t i = 0; i < MetricsSnapshot::kMaxSlowQueries; ++i) {
    s.RecordSlow({kSat - i, kSat, kSat, kSat,
                  serve::ResultStatus::kDeadlineExceeded});
  }
  const std::string json = serve::ToJson(s);
  // Every saturated counter appears verbatim — no truncation anywhere.
  EXPECT_NE(json.find("\"queries\":18446744073709551615"),
            std::string::npos);
  EXPECT_NE(json.find("\"max\":18446744073709551615"), std::string::npos);
  // Structurally balanced and terminated (json.loads-level validation
  // runs in the trace_roundtrip ctest).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\0'), std::string::npos);
}

// --- Engine tracing ------------------------------------------------------

uint64_t SpanArgOr0(const trace::Tracer::Event& e, const char* name) {
  for (size_t i = 0; i < e.num_args; ++i) {
    if (std::strcmp(e.arg_names[i], name) == 0) return e.arg_values[i];
  }
  return 0;
}

// End-to-end attribution: with tracing on, the per-span self counts
// summed across every tracer reproduce the merged QueryStats exactly,
// and the slow-query log fills (threshold 1 ns). Runs under TSan in CI
// (tsan job runs ctest -R serve): per-worker tracers must not race.
TEST(QueryEngine, TracingAttributesEveryCounter) {
  ServeFixture fx(3000, 48, 15);
  Thm1 thm1(fx.data);
  serve::Metrics metrics;
  serve::QueryEngine<Thm1> engine(&thm1,
                                  {.num_threads = 3,
                                   .trace_capacity = 1 << 14,
                                   .slow_query_ns = 1},
                                  &metrics);
  auto results = engine.QueryBatch(fx.requests);
  ASSERT_EQ(results.size(), fx.requests.size());
  for (size_t i = 0; i < fx.requests.size(); ++i) {
    auto want = test::BruteTopK<Range1DProblem>(
        fx.data, fx.requests[i].predicate, fx.requests[i].k);
    EXPECT_EQ(test::IdsOf(results[i].elements), test::IdsOf(want));
  }

  ASSERT_TRUE(engine.tracing_enabled());
  ASSERT_EQ(engine.num_tracers(), engine.num_threads() + 1);
  QueryStats sum;
  size_t request_spans = 0;
  for (size_t t = 0; t < engine.num_tracers(); ++t) {
    const trace::Tracer& tracer = engine.tracer(t);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_EQ(tracer.open_depth(), 0u);
    for (const trace::Tracer::Event& e : tracer.events()) {
      if (e.kind != trace::Tracer::EventKind::kSpan) continue;
      if (std::strcmp(e.name, "request") == 0) ++request_spans;
      QueryStats::ForEachField([&sum, &e](const char* name, auto member) {
        sum.*member += SpanArgOr0(e, name);
      });
    }
  }
  EXPECT_EQ(request_spans, fx.requests.size());
  const MetricsSnapshot m = metrics.Snapshot();
  QueryStats::ForEachField([&m, &sum](const char* name, auto member) {
    EXPECT_EQ(m.stats.*member, sum.*member) << "field " << name;
  });

  // Threshold 1 ns: every request is "slow", so the log is full and
  // descending.
  ASSERT_EQ(m.slow_queries.size(), MetricsSnapshot::kMaxSlowQueries);
  for (size_t i = 1; i < m.slow_queries.size(); ++i) {
    EXPECT_GE(m.slow_queries[i - 1].latency_ns,
              m.slow_queries[i].latency_ns);
  }

  const std::string json = engine.ChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"batch\""), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
  EXPECT_NE(json.find("coordinator"), std::string::npos);

  // ClearTraces drops events but keeps tracing armed.
  engine.ClearTraces();
  for (size_t t = 0; t < engine.num_tracers(); ++t) {
    EXPECT_TRUE(engine.tracer(t).events().empty());
  }

  // Options::trace_capacity == 0 (the default): no tracers at all.
  serve::QueryEngine<Thm1> off(&thm1, {.num_threads = 2});
  EXPECT_FALSE(off.tracing_enabled());
  EXPECT_EQ(off.num_tracers(), 0u);
}

}  // namespace
}  // namespace topk
