// Zero-allocation steady state: once a QueryEngine's per-worker scratch
// arenas and recycled result slots are warm, serving a batch performs
// ZERO heap allocations — for all four reductions, on both the plain
// and the cost-budgeted (BudgetedTopKInto) paths. Counted by replacing
// the global operator new/delete in this TU; any allocation anywhere in
// the process during the measured window fails the test, so the
// assertion covers the engine, the reductions, the substrates, and the
// accounting layer at once.
//
// Skipped under ASan/TSan: sanitizers interpose on the allocator and
// replacing operator new underneath them is not supported.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "federate/coordinator.h"
#include "federate/shard_map.h"
#include "range1d/count_tree.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "test_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TOPK_ALLOC_COUNTING_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TOPK_ALLOC_COUNTING_DISABLED 1
#endif
#endif

// GCC inlines through the replaced operator new below, sees malloc, and
// then flags the free() in the replaced operator delete as mismatched —
// a false positive: the replaced pair IS malloc/free, consistently.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
// Relaxed is enough: the measured window is bracketed by the
// QueryBatchInto barrier, which orders the workers' counts.
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

#ifndef TOPK_ALLOC_COUNTING_DISABLED
// Counting allocator: every allocation in the process ticks the
// counter. Aligned (over-aligned-type) variants are intentionally NOT
// replaced — the default ones are malloc-family too, so the pairs stay
// consistent — and nothing on the query path uses over-aligned types.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  std::abort();  // no exceptions in this codebase
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // !TOPK_ALLOC_COUNTING_DISABLED

namespace topk {
namespace {

using range1d::CountTree;
using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;

using Thm1 = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
using Thm2 = SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax>;
using Baseline = BinarySearchTopK<Range1DProblem, PrioritySearchTree>;
using Counting = CountingTopK<Range1DProblem, PrioritySearchTree, CountTree>;

constexpr size_t kN = 1500;

std::vector<Point1D> Data() {
  Rng rng(1234);
  return test::RandomPoints1D(kN, &rng);
}

std::vector<Point1D> DeepKData(size_t n) {
  Rng rng(8192);
  return test::RandomPoints1D(n, &rng);
}

// Diverse single-worker batch: mixed k, mixed ranges, one cost-budgeted
// request (the BudgetedTopKInto staged path). One worker makes the
// request->worker assignment deterministic, so the warm-up batches warm
// exactly the pools the measured batches use.
template <typename Structure>
void ExpectZeroAllocSteadyState(const Structure& s) {
  using Engine = serve::QueryEngine<Structure>;
  typename Engine::Options options;
  options.num_threads = 1;
  Engine engine(&s, options);

  Rng rng(99);
  std::vector<typename Engine::Request> requests;
  for (size_t i = 0; i < 24; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    typename Engine::Request r;
    r.predicate = Range1D{lo, hi};
    r.k = 1 + i * 7 % 60;
    requests.push_back(r);
  }
  {
    // Staged-doubling path: a budget small enough to degrade sometimes,
    // deterministic because query-time work is deterministic.
    typename Engine::Request budgeted;
    budgeted.predicate = Range1D{0.1, 0.9};
    budgeted.k = 40;
    budgeted.cost_budget = 500;
    requests.push_back(budgeted);
  }

  std::vector<typename Engine::Result> results;
  for (int warm = 0; warm < 3; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "steady-state batches allocated";

  // The recycled-slot path must still produce exact answers.
  const std::vector<Point1D> data = Data();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].ok()) continue;
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, requests[i].predicate, requests[i].k)))
        << "request " << i;
  }
}

// Multi-worker batch. Request-to-worker assignment is a race (the
// self-scheduling cursor), so a parked worker can sit out many fast
// batches and then serve its first request COLD mid-measurement;
// Warmup() primes every worker's arena on every request, making the
// steady state independent of the assignment. The slot buffers are
// deterministic regardless (slot i always answers request i).
template <typename Structure>
void ExpectZeroAllocSteadyStateThreaded(const Structure& s) {
  using Engine = serve::QueryEngine<Structure>;
  typename Engine::Options options;
  options.num_threads = 4;
  Engine engine(&s, options);

  Rng rng(321);
  std::vector<typename Engine::Request> requests;
  for (size_t i = 0; i < 32; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    typename Engine::Request r;
    r.predicate = Range1D{lo, hi};
    r.k = 1 + i * 5 % 50;
    requests.push_back(r);
  }

  engine.Warmup(requests);
  std::vector<typename Engine::Result> results;
  for (int warm = 0; warm < 2; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "steady-state threaded batches allocated";
}

#ifdef TOPK_ALLOC_COUNTING_DISABLED
#define TOPK_SKIP_UNDER_SANITIZERS() \
  GTEST_SKIP() << "allocation counting disabled under sanitizers"
#else
#define TOPK_SKIP_UNDER_SANITIZERS() (void)0
#endif

TEST(AllocRegression, CoreSetTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Thm1 s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

TEST(AllocRegression, SampledTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Thm2 s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

TEST(AllocRegression, BinarySearchTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Baseline s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

TEST(AllocRegression, CountingTopKZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  Counting s(Data());
  ExpectZeroAllocSteadyState(s);
  ExpectZeroAllocSteadyStateThreaded(s);
}

// Deep-k serial steady state: k in [kRadixMinK, n/2] puts every final
// selection over the radix threshold, and the radix path must sort
// through memory that already exists (the pool's free tail or the
// result slot). So besides 0 allocs/request, no worker's arena may grow
// past warm-up: the same pools, each with the same free buffers. One
// and two request workers; Warmup() primes every arena on every
// request so the assignment race cannot serve a cold request.
template <typename Structure>
void ExpectDeepKSteadyState(const Structure& s, size_t n, size_t threads) {
  using Engine = serve::QueryEngine<Structure>;
  typename Engine::Options options;
  options.num_threads = threads;
  Engine engine(&s, options);

  Rng rng(2048 + threads);
  std::vector<typename Engine::Request> requests;
  for (size_t i = 0; i < 12; ++i) {
    typename Engine::Request r;
    const double lo = 0.2 * rng.NextDouble();
    r.predicate = Range1D{lo, 1.0 - 0.2 * rng.NextDouble()};
    r.k = kselect_internal::kRadixMinK +
          rng.Below(n / 2 - kselect_internal::kRadixMinK + 1);
    requests.push_back(r);
  }

  engine.Warmup(requests);
  std::vector<typename Engine::Result> results;
  for (int warm = 0; warm < 2; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }
  std::vector<std::pair<size_t, size_t>> arenas;  // (pools, free buffers)
  for (size_t t = 0; t < engine.num_threads(); ++t) {
    const Scratch& scratch = engine.worker_scratch(t);
    arenas.emplace_back(scratch.num_pools(), scratch.free_count<Point1D>());
  }

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 4; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "deep-k steady state allocated, threads="
                        << threads;
  for (size_t t = 0; t < engine.num_threads(); ++t) {
    const Scratch& scratch = engine.worker_scratch(t);
    EXPECT_EQ(scratch.num_pools(), arenas[t].first) << "worker " << t;
    EXPECT_EQ(scratch.free_count<Point1D>(), arenas[t].second)
        << "worker " << t;
  }

  const std::vector<Point1D> data = DeepKData(n);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "request " << i;
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, requests[i].predicate, requests[i].k)))
        << "request " << i;
  }
}

template <typename Structure>
void ExpectDeepKSteadyStateAllWorkerCounts() {
  constexpr size_t kDeepN = size_t{1} << 13;
  const Structure s(DeepKData(kDeepN));
  ExpectDeepKSteadyState(s, kDeepN, 1);
  ExpectDeepKSteadyState(s, kDeepN, 2);
}

TEST(AllocRegression, DeepKRadixSelectZeroAllocsNoArenaGrowth) {
  TOPK_SKIP_UNDER_SANITIZERS();
  ExpectDeepKSteadyStateAllWorkerCounts<Thm1>();
  ExpectDeepKSteadyStateAllWorkerCounts<Thm2>();
  ExpectDeepKSteadyStateAllWorkerCounts<Baseline>();
  ExpectDeepKSteadyStateAllWorkerCounts<Counting>();
}

// Epoch-pinned query path (PR's serve-during-mutation mode): acquiring
// the per-batch epoch pin is a slot store + pointer compare — no
// allocation — so the steady state stays at zero allocs/request, even
// straddling a Publish (writer-side allocation happens outside the
// measured window; the engine's arenas stay warm across the swap
// because the republished structure serves the same workload).
TEST(AllocRegression, EpochPinnedPathZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  serve::EpochManager<Thm2> epochs{Thm2(Data())};
  using Engine = serve::QueryEngine<Thm2>;
  Engine::Options options;
  options.num_threads = 1;
  Engine engine(&epochs, options);

  Rng rng(555);
  std::vector<Engine::Request> requests;
  for (size_t i = 0; i < 24; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    Engine::Request r;
    r.predicate = Range1D{lo, hi};
    r.k = 1 + i * 7 % 60;
    requests.push_back(r);
  }

  std::vector<Engine::Result> results;
  for (int warm = 0; warm < 3; ++warm) {
    engine.QueryBatchInto(requests, &results);
  }

  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "epoch-pinned steady state allocated";
  EXPECT_EQ(engine.last_batch_epoch(), 1u);

  // Rotate the epoch (unmeasured — the writer side allocates by
  // design), re-warm once, and the pinned path must be zero again.
  epochs.Publish(Thm2(Data()));
  engine.QueryBatchInto(requests, &results);
  before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    engine.QueryBatchInto(requests, &results);
  }
  allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "post-publish steady state allocated";
  EXPECT_EQ(engine.last_batch_epoch(), 2u);

  const std::vector<Point1D> data = Data();
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(test::IdsOf(results[i].elements),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, requests[i].predicate, requests[i].k)))
        << "request " << i;
  }
}

// Federated steady state: once the coordinator's per-shard request and
// result slots, merge pool, and the caller's out buffer are warm, a
// full all-shards-healthy fan-out (scatter + TA rounds + merge +
// k-select) allocates nothing — and so does the cache-hit path, which
// never even fans out. Distinct queries with distinct ks keep both
// paths honest.
TEST(AllocRegression, FederatedFanoutAndCacheHitZeroSteadyStateAllocs) {
  TOPK_SKIP_UNDER_SANITIZERS();
  const std::vector<Point1D> data = Data();
  auto parts = federate::PartitionById(data, 3);
  std::vector<Thm2> structures;
  structures.reserve(parts.size());
  for (auto& p : parts) structures.emplace_back(std::move(p));
  std::vector<std::unique_ptr<serve::QueryEngine<Thm2>>> engines;
  std::vector<federate::Coordinator<Thm2>::Shard> shards;
  for (Thm2& s : structures) {
    engines.push_back(std::make_unique<serve::QueryEngine<Thm2>>(
        &s, serve::QueryEngine<Thm2>::Options{}));
    shards.push_back({engines.back().get(), nullptr});
  }
  // Direct-mapped: size the cache so the 12 distinct keys land in
  // distinct slots (collisions evict, which would turn repeats into
  // deterministic miss+refill cycles and halve the hit tally).
  federate::Coordinator<Thm2> coord(std::move(shards),
                                    {.cache_entries = 1024});

  Rng rng(777);
  std::vector<Range1D> queries;
  std::vector<size_t> ks;
  for (size_t i = 0; i < 12; ++i) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi});
    ks.push_back(1 + i * 9 % 70);
  }
  std::vector<Point1D> out;

  // Cache-hit path: warm fills, then every repeat is a hit.
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(coord.QueryInto(queries[i], ks[i], &out),
              serve::ResultStatus::kOk);
  }
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    for (size_t i = 0; i < queries.size(); ++i) {
      coord.QueryInto(queries[i], ks[i], &out);
    }
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "federated cache-hit path allocated";
  EXPECT_GE(coord.stats().cache_hits, 5 * queries.size());

  // Full fan-out path: cache off, warm one sweep, then measure.
  std::vector<federate::Coordinator<Thm2>::Shard> shards2;
  for (auto& e : engines) shards2.push_back({e.get(), nullptr});
  federate::Coordinator<Thm2> nocache(std::move(shards2), {});
  for (int warm = 0; warm < 3; ++warm) {
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(nocache.QueryInto(queries[i], ks[i], &out),
                serve::ResultStatus::kOk);
    }
  }
  before = g_alloc_count.load(std::memory_order_relaxed);
  for (int it = 0; it < 5; ++it) {
    for (size_t i = 0; i < queries.size(); ++i) {
      nocache.QueryInto(queries[i], ks[i], &out);
    }
  }
  allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "federated fan-out path allocated";
  EXPECT_EQ(nocache.stats().cache_hits, 0u);

  // Both paths exact against brute force.
  for (size_t i = 0; i < queries.size(); ++i) {
    coord.QueryInto(queries[i], ks[i], &out);
    EXPECT_EQ(test::IdsOf(out),
              test::IdsOf(test::BruteTopK<Range1DProblem>(
                  data, queries[i], ks[i])))
        << "query " << i;
  }
}

// The compatibility Query() overloads own a throwaway Scratch — they
// may allocate, but must return bit-identical answers to the scratch
// path (the engine results are checked against brute force above; this
// pins the two entry points to each other directly).
TEST(AllocRegression, CompatQueryMatchesScratchPath) {
  const std::vector<Point1D> data = Data();
  Thm1 s(data);
  Scratch scratch;
  std::vector<Point1D> out;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const Range1D q{lo, hi};
    const size_t k = 1 + static_cast<size_t>(i) % 40;
    s.QueryInto(q, k, &scratch, &out);
    EXPECT_EQ(test::IdsOf(out), test::IdsOf(s.Query(q, k)));
  }
  EXPECT_EQ(scratch.outstanding(), 0u);
}

}  // namespace
}  // namespace topk
