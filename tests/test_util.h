// Shared test helpers: deterministic data generators and brute-force
// reference implementations every structure is validated against.

#ifndef TOPK_TESTS_TEST_UTIL_H_
#define TOPK_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "audit/checked_max.h"
#include "audit/checked_prioritized.h"
#include "common/kselect.h"
#include "common/random.h"
#include "common/weighted.h"
#include "range1d/point1d.h"

namespace topk::test {

// Substrate aliases for the brute-force sweeps: under -DTOPK_AUDIT=ON
// (CMake option TOPK_AUDIT) every reduction runs over the
// contract-verifying audit wrappers, so a substrate that emits a
// duplicate, ignores a stop, or returns a non-maximal max aborts the
// sweep at the violating query instead of surfacing as a wrong answer
// (or not at all).
#ifdef TOPK_AUDIT
template <typename S, typename P>
using MaybeAudited = audit::CheckedPrioritized<S, P>;
template <typename S, typename P>
using MaybeAuditedMax = audit::CheckedMax<S, P>;
#else
template <typename S, typename P>
using MaybeAudited = S;
template <typename S, typename P>
using MaybeAuditedMax = S;
#endif

// n weighted 1D points with x in [0, 1) and unique ids; weights are
// random but distinct-by-id ties never arise in practice.
inline std::vector<range1d::Point1D> RandomPoints1D(size_t n, Rng* rng) {
  std::vector<range1d::Point1D> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i].x = rng->NextDouble();
    pts[i].weight = rng->NextDouble() * 1000.0;
    pts[i].id = i + 1;
  }
  return pts;
}

// As above, but with many duplicate x coordinates (stress for split
// logic) and duplicate weights (stress for id tie-breaking).
inline std::vector<range1d::Point1D> ClumpedPoints1D(size_t n, Rng* rng) {
  std::vector<range1d::Point1D> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i].x = static_cast<double>(rng->Below(n / 4 + 1));
    pts[i].weight = static_cast<double>(rng->Below(n / 8 + 1));
    pts[i].id = i + 1;
  }
  return pts;
}

// Heavier ties still: 5 distinct weights over all n points, so every
// top-k pool is wall-to-wall duplicates and only the (weight, id)
// tie-break decides the answer. x clumps as in ClumpedPoints1D.
inline std::vector<range1d::Point1D> SaturatedTies(size_t n, Rng* rng) {
  std::vector<range1d::Point1D> pts(n);
  for (size_t i = 0; i < n; ++i) {
    pts[i].x = static_cast<double>(rng->Below(n / 4 + 1));
    pts[i].weight = static_cast<double>(rng->Below(5));
    pts[i].id = i + 1;
  }
  return pts;
}

// Brute-force top-k for any problem.
template <typename Problem>
std::vector<typename Problem::Element> BruteTopK(
    const std::vector<typename Problem::Element>& data,
    const typename Problem::Predicate& q, size_t k) {
  std::vector<typename Problem::Element> pool;
  for (const auto& e : data) {
    if (Problem::Matches(q, e)) pool.push_back(e);
  }
  SelectTopK(&pool, k);
  return pool;
}

// Brute-force prioritized reporting, sorted by descending weight.
template <typename Problem>
std::vector<typename Problem::Element> BrutePrioritized(
    const std::vector<typename Problem::Element>& data,
    const typename Problem::Predicate& q, double tau) {
  std::vector<typename Problem::Element> out;
  for (const auto& e : data) {
    if (Problem::Matches(q, e) && MeetsThreshold(e, tau)) out.push_back(e);
  }
  std::sort(out.begin(), out.end(), ByWeightDesc());
  return out;
}

// Brute-force max.
template <typename Problem>
std::optional<typename Problem::Element> BruteMax(
    const std::vector<typename Problem::Element>& data,
    const typename Problem::Predicate& q) {
  std::optional<typename Problem::Element> best;
  for (const auto& e : data) {
    if (!Problem::Matches(q, e)) continue;
    if (!best.has_value() || HeavierThan(e, *best)) best = e;
  }
  return best;
}

// Ids of a result vector, for order-insensitive comparisons.
template <typename E>
std::vector<uint64_t> IdsOf(const std::vector<E>& v) {
  std::vector<uint64_t> ids;
  ids.reserve(v.size());
  for (const E& e : v) ids.push_back(e.id);
  return ids;
}

template <typename E>
std::vector<uint64_t> SortedIdsOf(std::vector<E> v) {
  std::vector<uint64_t> ids = IdsOf(v);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace topk::test

#endif  // TOPK_TESTS_TEST_UTIL_H_
