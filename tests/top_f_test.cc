// TopFChain internals (Section 3.2's nested core-set structure) tested
// directly: level shrinkage, the pool contract (unsorted, heaviest-closed,
// holding the top-min(f, |q|)) against brute force, and the per-level
// query count of the pivot-first order.

#include "core/top_f.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/kselect.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/core_set.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;

using Chain = TopFChain<Range1DProblem, PrioritySearchTree>;

// The chain's pool, copied out of the arena; nullopt when the chain
// reported an unlucky core-set.
std::optional<std::vector<Point1D>> PoolOf(const Chain& chain,
                                           const Range1D& q,
                                           QueryStats* stats = nullptr) {
  Scratch scratch;
  std::optional<ScratchVec<Point1D>> pool =
      chain.QueryPool(q, &scratch, stats);
  if (!pool.has_value()) return std::nullopt;
  return std::vector<Point1D>(pool->begin(), pool->end());
}

// The top-min(f, |q|) of the chain's pool, heaviest first.
std::optional<std::vector<Point1D>> TopFOf(const Chain& chain,
                                           const Range1D& q) {
  std::optional<std::vector<Point1D>> pool = PoolOf(chain, q);
  if (pool.has_value()) SelectTopK(&*pool, chain.f());
  return pool;
}

TEST(TopFChain, SingleLevelWhenSmall) {
  Rng rng(1);
  std::vector<Point1D> data = test::RandomPoints1D(100, &rng);
  Chain chain(data, /*f=*/50, /*constant_scale=*/1.0, &rng, 16);
  EXPECT_EQ(chain.num_levels(), 1u);  // 100 <= 4 * 50
  auto top = TopFOf(chain, {0.0, 1.0});
  ASSERT_TRUE(top.has_value());
  auto want = test::BruteTopK<Range1DProblem>(data, {0.0, 1.0}, 50);
  EXPECT_EQ(test::IdsOf(*top), test::IdsOf(want));
}

TEST(TopFChain, LevelsShrinkGeometrically) {
  Rng rng(2);
  std::vector<Point1D> data = test::RandomPoints1D(60000, &rng);
  const size_t f = CoreSetRank(60000, Range1DProblem::kLambda, 1.0) * 2;
  Chain chain(data, f, 1.0, &rng, 16);
  ASSERT_GT(chain.num_levels(), 1u);
  for (size_t j = 1; j < chain.num_levels(); ++j) {
    EXPECT_LT(chain.level_size(j), chain.level_size(j - 1));
  }
  EXPECT_EQ(chain.level_size(0), 60000u);
}

TEST(TopFChain, TopFMatchesBruteAcrossLevelsAndRanges) {
  Rng rng(3);
  std::vector<Point1D> data = test::RandomPoints1D(30000, &rng);
  const size_t f = 300;
  Chain chain(data, f, 1.0, &rng, 16);
  int failures = 0;
  for (int trial = 0; trial < 30; ++trial) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    if (a > b) std::swap(a, b);
    auto top = TopFOf(chain, {a, b});
    if (!top.has_value()) {
      ++failures;  // allowed (unlucky core-set) but must be rare
      continue;
    }
    auto want = test::BruteTopK<Range1DProblem>(data, {a, b}, f);
    ASSERT_EQ(test::IdsOf(*top), test::IdsOf(want));
  }
  EXPECT_LE(failures, 2);
}

TEST(TopFChain, EmptyPredicateReturnsEmpty) {
  Rng rng(4);
  Chain chain(test::RandomPoints1D(5000, &rng), 100, 1.0, &rng, 16);
  auto top = PoolOf(chain, {2.0, 3.0});
  ASSERT_TRUE(top.has_value());
  EXPECT_TRUE(top->empty());
}

TEST(TopFChain, StatsChargedPerLevel) {
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(40000, &rng);
  Chain chain(data, 200, 1.0, &rng, 16);
  QueryStats stats;
  ASSERT_TRUE(PoolOf(chain, {0.0, 1.0}, &stats).has_value());
  // Whole domain: pivot first, one monitored query per level (the
  // bottom level's probe, one {w >= tau} fetch on every level above).
  ASSERT_GT(chain.num_levels(), 1u);
  EXPECT_EQ(stats.prioritized_queries, chain.num_levels());
}

// The pool contract, against brute force: the pool is the |pool|
// heaviest of q(S) (heaviest-closed) and holds at least min(f, |q(S)|)
// elements, for empty, narrow, wide and whole-domain predicates.
TEST(TopFChain, PoolIsHeaviestClosedAndHoldsTopF) {
  const size_t n = 20000;
  // scale 0.25 keeps the pivot rank (40) below both f and the core-set
  // probability below 1/2, so every chain has several levels.
  const double scale = 0.25;
  for (const size_t f : {size_t{50}, size_t{200}}) {
    Rng rng(6 + f);
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    Chain chain(data, f, scale, &rng, 16);
    ASSERT_GE(chain.num_levels(), 3u) << "f=" << f;
    ASSERT_LE(CoreSetRank(n, Range1DProblem::kLambda, scale), f);
    int answered = 0, failed = 0;
    for (int trial = 0; trial < 40; ++trial) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      switch (trial % 4) {
        case 0: a = 2.0; b = 3.0; break;                  // empty
        case 1: b = a + 0.002; break;                     // narrow
        case 2: a *= 0.2; b = 0.8 + 0.2 * b; break;       // wide
        default: a = 0.0; b = 1.0; break;                 // whole domain
      }
      const Range1D q{a, b};
      std::optional<std::vector<Point1D>> pool = PoolOf(chain, q);
      if (!pool.has_value()) {
        ++failed;  // allowed (unlucky core-set) but must be rare
        continue;
      }
      ++answered;
      const std::vector<Point1D> all =
          test::BruteTopK<Range1DProblem>(data, q, n);
      ASSERT_GE(pool->size(), std::min(f, all.size()))
          << "f=" << f << " trial=" << trial;
      ASSERT_LE(pool->size(), all.size());
      std::sort(pool->begin(), pool->end(), ByWeightDesc());
      const std::vector<Point1D> prefix(
          all.begin(), all.begin() + static_cast<std::ptrdiff_t>(pool->size()));
      ASSERT_EQ(test::IdsOf(*pool), test::IdsOf(prefix))
          << "f=" << f << " trial=" << trial;
    }
    EXPECT_LE(failed, 2) << "f=" << f;
    EXPECT_GE(answered, 38) << "f=" << f;
  }
}

}  // namespace
}  // namespace topk
