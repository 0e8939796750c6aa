// Wide differential sweep: many seeds x every 1D-range top-k
// implementation in the library against brute force and against each
// other. This is the library's "consistency court": every structure
// answers the same queries, all answers must be bit-identical (the
// (weight, id) order is a strict total order, so there is exactly one
// correct output).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/binary_search_topk.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "core/scan_topk.h"
#include "interval/interval_kd.h"
#include "interval/seg_stab.h"
#include "interval/stab_max.h"
#include "range1d/count_tree.h"
#include "range1d/direct_topk.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "test_util.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::Range1D;
using range1d::Range1DProblem;

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, AllRange1DImplementationsAgree) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n = 500 + rng.Below(4000);
  std::vector<Point1D> data = (seed % 3 == 0)
                                  ? test::ClumpedPoints1D(n, &rng)
                                  : test::RandomPoints1D(n, &rng);

  ReductionOptions opts;
  opts.seed = seed * 1337;
  opts.constant_scale = (seed % 4 == 0) ? 0.05 : 1.0;  // stress fallbacks

  CoreSetTopK<Range1DProblem, range1d::PrioritySearchTree> thm1(data, opts);
  SampledTopK<Range1DProblem, range1d::PrioritySearchTree,
              range1d::RangeMax>
      thm2_static(data, opts);
  SampledTopK<Range1DProblem, range1d::DynamicPst, range1d::DynamicRangeMax>
      thm2_dynamic(data, opts);
  BinarySearchTopK<Range1DProblem, range1d::PrioritySearchTree> baseline(
      data);
  CountingTopK<Range1DProblem, range1d::PrioritySearchTree,
               range1d::CountTree>
      counting(data);
  range1d::HeapSelectTopK direct(data);
  ScanTopK<Range1DProblem> scan(data);

  const double xmax = (seed % 3 == 0) ? static_cast<double>(n) : 1.0;
  for (int trial = 0; trial < 8; ++trial) {
    double a = rng.NextDouble() * xmax, b = rng.NextDouble() * xmax;
    if (a > b) std::swap(a, b);
    const Range1D q{a, b};
    const size_t ks[] = {1, 1 + rng.Below(30), n / 3, n};
    for (size_t k : ks) {
      if (k == 0) continue;
      auto want = test::BruteTopK<Range1DProblem>(data, q, k);
      const auto want_ids = test::IdsOf(want);
      ASSERT_EQ(test::IdsOf(thm1.Query(q, k)), want_ids) << "thm1";
      ASSERT_EQ(test::IdsOf(thm2_static.Query(q, k)), want_ids)
          << "thm2_static";
      ASSERT_EQ(test::IdsOf(thm2_dynamic.Query(q, k)), want_ids)
          << "thm2_dynamic";
      ASSERT_EQ(test::IdsOf(baseline.Query(q, k)), want_ids) << "baseline";
      ASSERT_EQ(test::IdsOf(counting.Query(q, k)), want_ids) << "counting";
      ASSERT_EQ(test::IdsOf(direct.Query(q, k)), want_ids) << "direct";
      ASSERT_EQ(test::IdsOf(scan.Query(q, k)), want_ids) << "scan";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SeedSweep,
                         ::testing::Range<uint64_t>(1, 25));

// Saturated ties (5 distinct weights) through all four reductions at
// every k regime, including k past |q(D)| and past n: with weight
// carrying almost no order, every threshold, pivot and selection
// decision rests on the id tie-break. Under -DTOPK_AUDIT=ON the
// substrates are contract-checked on every emission.
template <typename S>
void ExpectSaturatedTiesExact(const S& s, const std::vector<Point1D>& data,
                              uint64_t seed) {
  const size_t n = data.size();
  Rng rng(seed);
  const size_t ks[] = {1, 3, 16, 100, n / 3, n / 2 + 1, n + 7};
  for (int trial = 0; trial < 8; ++trial) {
    double lo = static_cast<double>(rng.Below(n / 4 + 1));
    double hi = static_cast<double>(rng.Below(n / 4 + 1));
    if (lo > hi) std::swap(lo, hi);
    const Range1D q{lo, hi};
    for (size_t k : ks) {
      ASSERT_EQ(test::IdsOf(s.Query(q, k)),
                test::IdsOf(test::BruteTopK<Range1DProblem>(data, q, k)))
          << "k=" << k << " q=[" << lo << "," << hi << "]";
    }
  }
}

TEST(SaturatedTiesSweep, AllReductionsMatchBruteForce) {
  using Pri = test::MaybeAudited<range1d::PrioritySearchTree,
                                 Range1DProblem>;
  Rng rng(7005);
  const std::vector<Point1D> data = test::SaturatedTies(8000, &rng);
  ExpectSaturatedTiesExact(CoreSetTopK<Range1DProblem, Pri>(data), data, 5);
  ExpectSaturatedTiesExact(
      SampledTopK<Range1DProblem, Pri,
                  test::MaybeAuditedMax<range1d::RangeMax, Range1DProblem>>(
          data),
      data, 6);
  ExpectSaturatedTiesExact(BinarySearchTopK<Range1DProblem, Pri>(data), data,
                           7);
  ExpectSaturatedTiesExact(
      CountingTopK<Range1DProblem, Pri, range1d::CountTree>(data), data, 8);
}

// The kd-tree interval substrate against the segment-tree one.
class StabSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StabSeedSweep, KdAndSegTreeSubstratesAgree) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n = 300 + rng.Below(3000);
  std::vector<interval::Interval> data(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.NextDouble();
    data[i] = {a, a + rng.NextDouble() * 0.3, rng.NextDouble() * 1000.0,
               i + 1};
  }
  interval::IntervalKdTree kd(data);
  interval::SegmentStabbing seg(data);
  SampledTopK<interval::StabProblem, interval::IntervalKdTree,
              interval::IntervalKdTree>
      thm2_kd(data);
  SampledTopK<interval::StabProblem, interval::SegmentStabbing,
              interval::SlabStabMax>
      thm2_seg(data);

  for (int trial = 0; trial < 15; ++trial) {
    const double q = rng.NextDouble() * 1.3;
    // Max agreement.
    auto kd_max = kd.QueryMax(q);
    auto want_max = test::BruteMax<interval::StabProblem>(data, q);
    ASSERT_EQ(kd_max.has_value(), want_max.has_value());
    if (kd_max.has_value()) {
      ASSERT_EQ(kd_max->id, want_max->id);
    }
    // Prioritized agreement.
    std::vector<interval::Interval> got;
    kd.QueryPrioritized(q, 500.0, [&got](const interval::Interval& e) {
      got.push_back(e);
      return true;
    });
    auto want =
        test::BrutePrioritized<interval::StabProblem>(data, q, 500.0);
    ASSERT_EQ(test::SortedIdsOf(got), test::SortedIdsOf(want));
    // Top-k agreement between the two Theorem 2 instantiations.
    for (size_t k : {size_t{1}, size_t{25}}) {
      auto want_topk = test::BruteTopK<interval::StabProblem>(data, q, k);
      ASSERT_EQ(test::IdsOf(thm2_kd.Query(q, k)), test::IdsOf(want_topk));
      ASSERT_EQ(test::IdsOf(thm2_seg.Query(q, k)), test::IdsOf(want_topk));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, StabSeedSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace topk
