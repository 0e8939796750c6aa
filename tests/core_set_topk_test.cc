// Theorem 1 reduction: exactness against brute force across sizes, k
// regimes (k <= f, f < k < n/2, k >= n/2), option ablations, and unlucky
// samples (fallback path).

#include "core/core_set_topk.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "test_util.h"
#include "trace/tracer.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

// Under -DTOPK_AUDIT=ON the substrate is audit::CheckedPrioritized
// (contract verification on every prioritized query in the sweep).
using TopK = CoreSetTopK<Range1DProblem,
                         test::MaybeAudited<PrioritySearchTree,
                                            Range1DProblem>>;

TEST(CoreSetTopK, EmptyInput) {
  TopK topk({});
  EXPECT_TRUE(Query(topk, {0, 1}, 5).empty());
}

TEST(CoreSetTopK, KZero) {
  Rng rng(1);
  TopK topk(test::RandomPoints1D(100, &rng));
  EXPECT_TRUE(Query(topk, {0, 1}, 0).empty());
}

TEST(CoreSetTopK, EmptyPredicate) {
  Rng rng(2);
  TopK topk(test::RandomPoints1D(100, &rng));
  EXPECT_TRUE(Query(topk, {2.0, 3.0}, 5).empty());
  EXPECT_TRUE(Query(topk, {0.7, 0.2}, 5).empty());  // inverted
}

TEST(CoreSetTopK, KBeyondMatchCountReturnsAllMatches) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(200, &rng);
  TopK topk(data);
  const Range1D q{0.4, 0.6};
  auto got = Query(topk, q, 10'000);
  auto want = test::BruteTopK<Range1DProblem>(data, q, 10'000);
  EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
}

TEST(CoreSetTopK, FClampedAboveCoreSetRank) {
  Rng rng(4);
  ReductionOptions opts;
  opts.constant_scale = 1.0;
  TopK topk(test::RandomPoints1D(5000, &rng), opts);
  EXPECT_GE(topk.f(), CoreSetRank(5000, Range1DProblem::kLambda, 1.0));
}

TEST(CoreSetTopK, StatsAreCharged) {
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(2000, &rng);
  TopK topk(data);
  QueryStats stats;
  Query(topk, {0.0, 1.0}, 3, &stats);
  EXPECT_GT(stats.prioritized_queries, 0u);
  EXPECT_GT(stats.nodes_visited, 0u);
}

struct Param {
  size_t n;
  uint64_t seed;
  double scale;
};

class CoreSetSweep : public ::testing::TestWithParam<Param> {};

TEST_P(CoreSetSweep, MatchesBruteForceAcrossKRegimes) {
  const Param p = GetParam();
  Rng rng(p.seed);
  std::vector<Point1D> data = test::RandomPoints1D(p.n, &rng);
  ReductionOptions opts;
  opts.constant_scale = p.scale;
  opts.seed = p.seed * 977;
  TopK topk(data, opts);
  topk.AuditInvariants();

  std::vector<size_t> ks = {1, 2, 3, 10, 50};
  ks.push_back(topk.f());          // boundary k = f
  ks.push_back(topk.f() + 1);      // just above
  ks.push_back(2 * topk.f());      // large-k core-set path
  ks.push_back(p.n / 2);           // scan threshold
  ks.push_back(p.n);               // everything
  for (int trial = 0; trial < 12; ++trial) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    if (trial % 4 == 0) {  // include full-domain queries
      a = 0.0;
      b = 1.0;
    }
    const Range1D q{a, b};
    for (size_t k : ks) {
      if (k == 0) continue;
      auto got = Query(topk, q, k);
      auto want = test::BruteTopK<Range1DProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(got), test::IdsOf(want))
          << "n=" << p.n << " k=" << k << " scale=" << p.scale
          << " q=[" << a << "," << b << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoreSetSweep,
    ::testing::Values(Param{1, 1, 1.0}, Param{2, 2, 1.0}, Param{10, 3, 1.0},
                      Param{100, 4, 1.0}, Param{1000, 5, 1.0},
                      Param{5000, 6, 1.0}, Param{20000, 7, 1.0},
                      // Aggressive constant ablation: smaller core-sets,
                      // more fallbacks, still exact.
                      Param{5000, 8, 0.05}, Param{20000, 9, 0.02},
                      Param{20000, 10, 0.1}));

// With tiny constants the structure leans on its verified fallback; the
// answers must stay exact and fallbacks must actually fire at least once
// across many queries (otherwise the test is vacuous).
TEST(CoreSetTopK, UnluckySamplesFallBackAndStayExact) {
  Rng rng(123);
  std::vector<Point1D> data = test::RandomPoints1D(30000, &rng);
  ReductionOptions opts;
  opts.constant_scale = 0.01;
  opts.seed = 99;
  TopK topk(data, opts);
  QueryStats stats;
  for (int trial = 0; trial < 60; ++trial) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    const size_t k = 1 + static_cast<size_t>(rng.Below(200));
    auto got = Query(topk, {a, b}, k, &stats);
    auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, k);
    ASSERT_EQ(test::IdsOf(got), test::IdsOf(want));
  }
  // Pinned exactly on these seeds: the order in which Theorem 1 tries
  // its routes must not change which queries fall back (5 of the 60,
  // none of them scans).
  EXPECT_EQ(stats.fallbacks, 5u);
  EXPECT_EQ(stats.full_scans, 0u);
}

// A wide predicate (|q(D)| > 4f) with k <= f: pivot first issues one
// monitored query per chain level — the bottom probe and one
// {w >= tau} fetch above it — and never a tau = -inf probe that hits
// its budget and is thrown away.
TEST(CoreSetTopK, WidePredicateSkipsTheDiscardedProbe) {
  Rng rng(321);
  const size_t n = size_t{1} << 17;
  std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  TopK topk(data);
  const size_t f = topk.f();
  ASSERT_GE(topk.num_chain_levels(), 2u);
  for (const Range1D q : {Range1D{0.0, 1.0}, Range1D{0.1, 0.9},
                          Range1D{0.2, 0.85}}) {
    ASSERT_GT(test::BruteTopK<Range1DProblem>(data, q, n).size(), 4 * f);
    for (const size_t k : {size_t{1}, size_t{100}, f}) {
      QueryStats stats;
      auto got = Query(topk, q, k, &stats);
      ASSERT_EQ(test::IdsOf(got),
                test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)));
      EXPECT_EQ(stats.fallbacks, 0u);
      EXPECT_EQ(stats.prioritized_queries, topk.num_chain_levels())
          << "k=" << k;
      EXPECT_LT(stats.elements_emitted, (4 * f + 1) + (8 * f + 1))
          << "k=" << k;
    }
  }
}

// At n = 2^17 the top rung of the large-k ladder (K = 16f) is a core-set
// of about 177 elements in expectation, below the pivot rank
// ceil(8 lambda ln n) = 189; with sampling seed 3 it draws 160. Its
// chain can never expose a pivot, so a query with 8f < k < n/2 skips
// that route and the tau = -inf probe (budget 4K + 1 > n, never hit)
// answers with one prioritized query.
TEST(CoreSetTopK, RungBelowPivotRankGoesStraightToTheProbe) {
  Rng rng(17);
  const size_t n = size_t{1} << 17;
  std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  ReductionOptions opts;
  opts.seed = 3;
  TopK topk(data, opts);
  const size_t f = topk.f();
  ASSERT_EQ(8 * f, 34816u);
  ASSERT_EQ(topk.num_large_k_core_sets(), 4u);
  trace::Tracer tracer(1 << 10);
  for (const Range1D q : {Range1D{0.0, 1.0}, Range1D{0.1, 0.9},
                          Range1D{0.15, 0.85}}) {
    for (const size_t k : {8 * f + 1, size_t{50000}, n / 2 - 1}) {
      QueryStats stats;
      auto got = Query(topk, q, k, &stats, &tracer);
      ASSERT_EQ(test::IdsOf(got),
                test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)));
      EXPECT_EQ(stats.fallbacks, 0u);
      EXPECT_EQ(stats.full_scans, 0u);
      EXPECT_EQ(stats.prioritized_queries, 1u) << "k=" << k;
      const trace::Tracer::Event& root = tracer.events().back();
      ASSERT_STREQ(root.name, "thm1_query");
      uint64_t answered_by = 99;
      for (size_t a = 0; a < root.num_args; ++a) {
        if (std::strcmp(root.arg_names[a], "answered_by") == 0) {
          answered_by = root.arg_values[a];
        }
      }
      EXPECT_EQ(answered_by, TopK::kAnsweredByProbe) << "k=" << k;
      tracer.Clear();
    }
  }
}

}  // namespace
}  // namespace topk
