#include "common/kselect.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/weighted.h"
#include "range1d/point1d.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;

TEST(WeightOrder, HeavierThanIsStrictTotalOrder) {
  Point1D a{0, 1.0, 1}, b{0, 2.0, 2}, c{0, 2.0, 3};
  EXPECT_TRUE(HeavierThan(b, a));
  EXPECT_FALSE(HeavierThan(a, b));
  // Equal weights break ties by id.
  EXPECT_TRUE(HeavierThan(c, b));
  EXPECT_FALSE(HeavierThan(b, c));
  EXPECT_FALSE(HeavierThan(b, b));
}

TEST(WeightOrder, MeetsThresholdIsInclusive) {
  Point1D a{0, 5.0, 1};
  EXPECT_TRUE(MeetsThreshold(a, 5.0));
  EXPECT_TRUE(MeetsThreshold(a, 4.9));
  EXPECT_FALSE(MeetsThreshold(a, 5.1));
}

TEST(KSelect, EmptyPool) {
  std::vector<Point1D> pool;
  SelectTopK(&pool, 5);
  EXPECT_TRUE(pool.empty());
}

TEST(KSelect, KZeroClearsPool) {
  std::vector<Point1D> pool{{0, 1, 1}, {0, 2, 2}};
  SelectTopK(&pool, 0);
  EXPECT_TRUE(pool.empty());
}

TEST(KSelect, KLargerThanPoolKeepsAllSorted) {
  std::vector<Point1D> pool{{0, 1, 1}, {0, 3, 2}, {0, 2, 3}};
  SelectTopK(&pool, 10);
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0].id, 2u);
  EXPECT_EQ(pool[1].id, 3u);
  EXPECT_EQ(pool[2].id, 1u);
}

TEST(KSelect, SelectsExactTopKDescending) {
  Rng rng(7);
  for (size_t n : {1u, 2u, 17u, 100u, 1000u}) {
    std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
    for (size_t k : {size_t{1}, n / 2, n}) {
      std::vector<Point1D> expected = data;
      std::sort(expected.begin(), expected.end(), ByWeightDesc());
      if (expected.size() > k) expected.resize(k);

      std::vector<Point1D> pool = data;
      SelectTopK(&pool, k);
      EXPECT_EQ(test::IdsOf(pool), test::IdsOf(expected));
    }
  }
}

TEST(KSelect, UnorderedVariantKeepsSameSet) {
  Rng rng(11);
  std::vector<Point1D> data = test::RandomPoints1D(500, &rng);
  std::vector<Point1D> sorted = data;
  SelectTopK(&sorted, 40);
  std::vector<Point1D> unordered = data;
  SelectTopKUnordered(&unordered, 40);
  EXPECT_EQ(test::SortedIdsOf(sorted), test::SortedIdsOf(unordered));
}

TEST(KSelect, DuplicateWeightsResolvedById) {
  Rng rng(13);
  std::vector<Point1D> data = test::ClumpedPoints1D(300, &rng);
  std::vector<Point1D> pool = data;
  SelectTopK(&pool, 25);
  std::vector<Point1D> expected = data;
  std::sort(expected.begin(), expected.end(), ByWeightDesc());
  expected.resize(25);
  EXPECT_EQ(test::IdsOf(pool), test::IdsOf(expected));
}

// ---- Radix path (min(k, |pool|) >= kRadixMinK) ---------------------------

// Weight generators for the radix sweeps; ids stay unique so the
// (weight, id) order is strict.
enum class Weights { kUniform, kFiveDistinct, kSignedZeros, kExtremes };

std::vector<Point1D> RadixPool(size_t n, Weights kind, Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {kInf,
                             -kInf,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 4,
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::max(),
                             0.0,
                             -0.0};
  std::vector<Point1D> pool(n);
  for (size_t i = 0; i < n; ++i) {
    double w = 0;
    switch (kind) {
      case Weights::kUniform:
        w = rng->NextDouble();
        break;
      case Weights::kFiveDistinct:
        w = static_cast<double>(rng->Below(5)) - 2.0;
        break;
      case Weights::kSignedZeros:
        // Mostly +-0.0, with a few nonzero weights on either side.
        w = rng->Below(8) == 0 ? rng->NextDouble() - 0.5
                               : (rng->Below(2) == 0 ? 0.0 : -0.0);
        break;
      case Weights::kExtremes:
        w = rng->Below(3) == 0
                ? specials[rng->Below(std::size(specials))]
                : (rng->NextDouble() - 0.5) * 1e-300 * rng->NextDouble();
        break;
    }
    pool[i] = Point1D{0, w, 3 * i + 1};
  }
  // Ids out of order relative to positions, so id ties are exercised.
  for (size_t i = n; i > 1; --i) {
    std::swap(pool[i - 1].id, pool[rng->Below(i)].id);
  }
  return pool;
}

std::vector<Point1D> Reference(std::vector<Point1D> pool, size_t k) {
  std::sort(pool.begin(), pool.end(), ByWeightDesc());
  if (pool.size() > k) pool.resize(k);
  return pool;
}

TEST(KSelectRadix, SweepMatchesComparatorOrder) {
  using kselect_internal::kRadixMinK;
  Rng rng(2024);
  const size_t t = kRadixMinK;
  for (const Weights kind : {Weights::kUniform, Weights::kFiveDistinct,
                             Weights::kSignedZeros, Weights::kExtremes}) {
    for (const size_t n : {t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1,
                           5 * t + 3, 16 * t}) {
      const std::vector<Point1D> data = RadixPool(n, kind, &rng);
      // Both sides of the threshold; |pool| >= 2k (free tail), |pool| <
      // 2k (sorts through `out`), and k >= |pool|.
      for (const size_t k : {size_t{1}, t - 1, t, t + 1, n / 2, n / 2 + 1,
                             n - 1, n, n + 7}) {
        const std::vector<Point1D> want = Reference(data, k);

        std::vector<Point1D> pool = data;
        SelectTopK(&pool, k);
        EXPECT_EQ(test::IdsOf(pool), test::IdsOf(want))
            << "SelectTopK kind=" << static_cast<int>(kind) << " n=" << n
            << " k=" << k;

        // A warm output vector holding stale elements, longer or shorter
        // than the answer, must end up holding exactly the answer.
        pool = data;
        std::vector<Point1D> out(n % 2 == 0 ? n + 5 : 3,
                                 Point1D{9, 9.0, ~uint64_t{0}});
        SelectTopKInto(&pool, k, &out);
        EXPECT_EQ(test::IdsOf(out), test::IdsOf(want))
            << "SelectTopKInto kind=" << static_cast<int>(kind)
            << " n=" << n << " k=" << k;
      }
    }
  }
}

// The sweep above must actually reach the radix path in both buffer
// cases; pin the strategy rule at the sizes it uses.
TEST(KSelectRadix, SweepSizesTakeRadixPath) {
  using kselect_internal::ChooseStrategy;
  using kselect_internal::kRadixMinK;
  using kselect_internal::Strategy;
  EXPECT_EQ(ChooseStrategy(kRadixMinK, 16 * kRadixMinK), Strategy::kRadix);
  EXPECT_EQ(ChooseStrategy(kRadixMinK, 2 * kRadixMinK + 1),
            Strategy::kRadix);
  EXPECT_EQ(ChooseStrategy(8 * kRadixMinK, 16 * kRadixMinK),
            Strategy::kRadix);
  EXPECT_NE(ChooseStrategy(kRadixMinK - 1, 16 * kRadixMinK),
            Strategy::kRadix);
  EXPECT_EQ(ChooseStrategy(1, 16 * kRadixMinK), Strategy::kHeap);
}

// Saturated ties straddling the k-th rank: with two weights, the k-th
// heaviest sits inside a tie run far wider than the digit buckets can
// split, so the boundary is resolved purely by id.
TEST(KSelectRadix, TieRunStraddlingKthRankResolvedById) {
  const size_t n = 10000;
  std::vector<Point1D> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = Point1D{0, i < 3000 ? 2.0 : 1.0, (i * 7919) % n};
  }
  for (const size_t k : {size_t{3000}, size_t{4000}, size_t{4999},
                         size_t{6500}, size_t{9999}}) {
    const std::vector<Point1D> want = Reference(data, k);
    std::vector<Point1D> pool = data;
    SelectTopK(&pool, k);
    EXPECT_EQ(test::IdsOf(pool), test::IdsOf(want)) << "k=" << k;
    pool = data;
    std::vector<Point1D> out;
    SelectTopKInto(&pool, k, &out);
    EXPECT_EQ(test::IdsOf(out), test::IdsOf(want)) << "k=" << k;
  }
}

// -0.0 and +0.0 compare equal under HeavierThan, so they form one tie
// run ordered by id; the output keeps each element's own sign bit.
TEST(KSelectRadix, SignedZerosOrderByIdAndKeepTheirBits) {
  const size_t n = 6000;
  std::vector<Point1D> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = Point1D{0, i % 2 == 0 ? -0.0 : 0.0, (i * 4099) % n};
  }
  const size_t k = 2500;
  std::vector<Point1D> pool = data;
  std::vector<Point1D> out;
  SelectTopKInto(&pool, k, &out);
  const std::vector<Point1D> want = Reference(data, k);
  ASSERT_EQ(test::IdsOf(out), test::IdsOf(want));
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(std::signbit(out[i].weight), std::signbit(want[i].weight));
  }
}

// The pivot helper returns the weight of the rank-th element of the
// (weight, id) order, sign bit included, and leaves the pool a
// permutation of itself.
void ExpectNthHeaviest(const std::vector<Point1D>& data, size_t rank) {
  const std::vector<Point1D> sorted = Reference(data, data.size());
  std::vector<Point1D> pool = data;
  const double w = NthHeaviestWeight(&pool, rank);
  EXPECT_EQ(std::bit_cast<uint64_t>(w),
            std::bit_cast<uint64_t>(sorted[rank - 1].weight))
      << "rank=" << rank << " |pool|=" << data.size();
  std::vector<uint64_t> got = test::IdsOf(pool), want = test::IdsOf(data);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(NthHeaviestWeight, FirstAndLastRank) {
  Rng rng(31);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{17}, size_t{5000}}) {
    const std::vector<Point1D> data = RadixPool(n, Weights::kUniform, &rng);
    ExpectNthHeaviest(data, 1);
    ExpectNthHeaviest(data, n);
    ExpectNthHeaviest(data, (n + 1) / 2);
  }
}

TEST(NthHeaviestWeight, TieRunStraddlingTheRank) {
  // Ranks 1000..2999 share weight 2.0; the answer is the tie weight at
  // every rank inside the run and the neighbours' weights just outside.
  const size_t n = 5000;
  std::vector<Point1D> data(n);
  for (size_t i = 0; i < n; ++i) {
    const double w = i < 1000 ? 3.0 : (i < 3000 ? 2.0 : 1.0);
    data[i] = Point1D{0, w, (i * 7919) % n};
  }
  for (const size_t rank : {size_t{1000}, size_t{1001}, size_t{2000},
                            size_t{3000}, size_t{3001}}) {
    ExpectNthHeaviest(data, rank);
  }
}

TEST(NthHeaviestWeight, MixedSignedZerosKeepTheRankedElementsSign) {
  Rng rng(32);
  const std::vector<Point1D> data =
      RadixPool(3000, Weights::kSignedZeros, &rng);
  for (const size_t rank : {size_t{1}, size_t{500}, size_t{1499},
                            size_t{1500}, size_t{2999}, size_t{3000}}) {
    ExpectNthHeaviest(data, rank);
  }
}

#ifdef TOPK_AUDIT
// NaN is the one weight on which the radix key and the comparator can
// disagree; the audit tree rejects it at selection time.
TEST(KSelectDeathTest, NaNWeightAbortsUnderAudit) {
  Rng rng(5);
  std::vector<Point1D> data = test::RandomPoints1D(5000, &rng);
  data[1234].weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(
      {
        std::vector<Point1D> pool = data;
        SelectTopK(&pool, 10);
      },
      "isnan");
  EXPECT_DEATH(
      {
        std::vector<Point1D> pool = data;
        std::vector<Point1D> out;
        SelectTopKInto(&pool, 3000, &out);
      },
      "isnan");
}

// Theorem 1 reads its pivot through NthHeaviestWeight, so the same
// audit covers the pivot path.
TEST(KSelectDeathTest, NaNWeightAbortsPivotUnderAudit) {
  Rng rng(6);
  std::vector<Point1D> data = test::RandomPoints1D(500, &rng);
  data[77].weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(
      {
        std::vector<Point1D> pool = data;
        NthHeaviestWeight(&pool, 40);
      },
      "isnan");
}
#endif  // TOPK_AUDIT

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(7), 7u);
    EXPECT_EQ(rng.Below(1), 0u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(4);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5) ? 1 : 0;
  EXPECT_GT(heads, 4700);
  EXPECT_LT(heads, 5300);
}

}  // namespace
}  // namespace topk
