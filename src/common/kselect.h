// k-selection utilities.
//
// The paper's reductions repeatedly finish with "k-selection": given an
// unordered candidate pool that is guaranteed to contain the k heaviest
// qualifying elements, extract them in O(|pool|) time (O(|pool|/B) I/Os in
// EM). We additionally sort the k survivors by descending weight — a
// k log k afterthought that makes the public API pleasant; callers that
// need the paper-exact unordered semantics use SelectTopKUnordered.
//
// SelectTopK / SelectTopKInto pick one of three strategies by
// (k, |pool|), with m = min(k, |pool|) survivors:
//   * heap-based std::partial_sort — O(|pool| log k), a single pass
//     whose k-element heap stays cache-hot; wins for small k (the
//     E24-measured UseHeapSelect rule below);
//   * std::nth_element + std::sort of the survivors —
//     O(|pool| + k log k) expected; the middle band;
//   * radix (m >= kRadixMinK, E24/E29-measured): an in-place MSD radix
//     select on an order-preserving 64-bit key of the weight (11-bit
//     digits starting at the highest bit where any two keys differ,
//     partitioned by two branch-free Lomuto passes, exact key ties at
//     the k boundary resolved by id), then a stable LSD radix sort of
//     the survivors that skips every digit all of them share, then an
//     id-descending sort of each run of equal weights. The output is
//     bitwise identical to the (weight, id) comparator order.
// The LSD sort ping-pongs through memory that already exists — the
// pool's own free tail when |pool| >= 2k, else the caller's output
// vector (SelectTopKInto) — so the radix path adds no buffer beyond
// fixed-size stack histograms. SelectTopK without a free tail falls
// back to nth_element + sort.
//
// The textbook k * log2(|pool|) < |pool| rule mispredicts the heap
// boundary on real hardware and is deliberately not used.
// SelectTopKUnordered stays nth_element-only — the paper-exact O(|pool|)
// primitive.
//
// NaN weights are the one input where the radix key order and the
// HeavierThan order can differ (the comparator is not a strict weak
// order on NaN either, so no strategy is exact there). Under
// -DTOPK_AUDIT, SelectTopK, SelectTopKInto and NthHeaviestWeight abort
// on a NaN weight; validating weights where data enters the library is
// ROADMAP item 4(a).

#ifndef TOPK_COMMON_KSELECT_H_
#define TOPK_COMMON_KSELECT_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/scratch.h"
#include "common/weighted.h"

namespace topk {

// Truncates `pool` to its min(k, |pool|) heaviest elements, unordered.
// Linear time (std::nth_element) — the paper-exact selection primitive.
template <typename E>
void SelectTopKUnordered(std::vector<E>* pool, size_t k) {
  if (pool->size() > k) {
    std::nth_element(pool->begin(), pool->begin() + k, pool->end(),
                     ByWeightDesc());
    pool->resize(k);
  }
}

namespace kselect_internal {

// E24-measured heap boundary (bench/bench_perf.cc; random pools of
// 24-byte elements). Two regimes:
//   * cache-resident pools (below ~8K elements): one nth_element
//     partition pass is so cheap that the heap's pop chain loses for
//     all but tiny k — partial_sort wins only up to k ~ n/512, and by
//     sub-microsecond margins;
//   * larger-than-cache pools: nth_element's partition passes go to
//     memory and its per-element cost jumps ~6x, while partial_sort's
//     single scan (the k-element heap stays cache-hot) does not —
//     partial_sort wins by 3-5x at small k and stays ahead until
//     k ~ 3*sqrt(n), i.e. while k^2 < ~10n.
inline bool UseHeapSelect(size_t k, size_t n) {
  constexpr size_t kCacheResidentPool = 8192;  // elements, ~L2 boundary
  if (n < kCacheResidentPool) return k * 512 <= n;
  return static_cast<double>(k) * static_cast<double>(k) <
         10.0 * static_cast<double>(n);
}

// Survivor count from which the radix path beats nth_element + sort
// (E24 crossover sweep, E29 end to end).
inline constexpr size_t kRadixMinK = 2048;

enum class Strategy { kHeap, kNthElement, kRadix };

// The strategy for selecting k of n > k elements when the radix path
// has a buffer (SelectTopKInto always does).
inline Strategy ChooseStrategy(size_t k, size_t n) {
  if (UseHeapSelect(k, n)) return Strategy::kHeap;
  return k >= kRadixMinK ? Strategy::kRadix : Strategy::kNthElement;
}

inline constexpr int kDigitBits = 11;
inline constexpr size_t kBuckets = size_t{1} << kDigitBits;
inline constexpr uint64_t kDigitMask = kBuckets - 1;
inline constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;
// Ranges this small finish with nth_element.
inline constexpr size_t kSmallRange = 64;

// Order-preserving key: HeavierThan on weight <=> smaller key, equal
// weights <=> equal key. Adding +0.0 folds -0.0 onto +0.0 (they compare
// equal); positive weights then flip their magnitude bits, negative
// ones keep theirs, and the sign bit puts every negative weight last.
template <typename E>
inline uint64_t RadixKey(const E& e) {
  const uint64_t u = std::bit_cast<uint64_t>(e.weight + 0.0);
  const uint64_t positive = (u >> 63) - 1;  // all ones iff sign clear
  return u ^ (positive & (~uint64_t{0} >> 1));
}

template <typename E>
inline size_t Digit(const E& e, int shift) {
  return static_cast<size_t>((RadixKey(e) >> shift) & kDigitMask);
}

// Branch-free Lomuto pass: moves the elements of [lo, hi) that satisfy
// `pred` to the front and returns the end of that prefix. The swap is
// unconditional; only the cursor advance depends on the predicate.
template <typename E, typename Pred>
size_t Partition(E* a, size_t lo, size_t hi, Pred pred) {
  size_t j = lo;
  for (size_t i = lo; i < hi; ++i) {
    const E e = a[i];
    const bool take = pred(e);
    a[i] = a[j];
    a[j] = e;
    j += static_cast<size_t>(take);
  }
  return j;
}

// MSD radix select: moves the k heaviest of a[0, n) to a[0, k),
// unordered. Requires k < n.
template <typename E>
void RadixSelect(E* a, size_t n, size_t k) {
  TOPK_CHECK_LE(n, size_t{UINT32_MAX});
  // Invariant: the `need` heaviest of [lo, hi) complete the answer.
  size_t lo = 0, hi = n, need = k;
  while (need < hi - lo) {
    uint64_t any = 0, all = ~uint64_t{0};
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t key = RadixKey(a[i]);
      any |= key;
      all &= key;
    }
    const uint64_t differ = any ^ all;
    if (differ == 0 || hi - lo <= kSmallRange) {
      // All keys equal (or few left): the comparator's id tie-break.
      std::nth_element(a + lo, a + lo + need, a + hi, ByWeightDesc());
      return;
    }
    const int top = static_cast<int>(std::bit_width(differ)) - 1;
    const int shift = top >= kDigitBits ? top - kDigitBits + 1 : 0;
    uint32_t hist[kBuckets] = {};
    for (size_t i = lo; i < hi; ++i) ++hist[Digit(a[i], shift)];
    // Bucket d holds the need-th heaviest: everything below d is in.
    size_t d = 0, below = 0;
    while (below + hist[d] < need) below += hist[d++];
    // Bucket d and everything heavier to the front, then split that
    // prefix (about `need` long, not the whole range) at d.
    const size_t end =
        below + hist[d] == hi - lo
            ? hi
            : Partition(a, lo, hi, [d, shift](const E& e) {
                return Digit(e, shift) <= d;
              });
    lo = below == 0 ? lo : Partition(a, lo, end, [d, shift](const E& e) {
      return Digit(e, shift) < d;
    });
    hi = end;
    need -= below;
  }
}

// Stable LSD radix sort of a[0, m) heaviest-first, ping-ponging with
// buf[0, m). Returns whichever of the two holds the result. Each
// scatter pass also counts the next live digit, so beyond one read for
// the shared digits and one for the first histogram, the sort reads
// the input once per pass.
template <typename E>
E* RadixSort(E* a, E* buf, size_t m) {
  TOPK_CHECK_LE(m, size_t{UINT32_MAX});
  uint64_t any = 0, all = ~uint64_t{0};
  for (size_t i = 0; i < m; ++i) {
    const uint64_t key = RadixKey(a[i]);
    any |= key;
    all &= key;
  }
  const uint64_t differ = any ^ all;
  int shifts[kDigits] = {};  // digits some two elements disagree on
  int live = 0;
  for (int p = 0; p < kDigits; ++p) {
    if (((differ >> (p * kDigitBits)) & kDigitMask) != 0) {
      shifts[live++] = p * kDigitBits;
    }
  }
  E* src = a;
  E* dst = buf;
  uint32_t hist[2][kBuckets] = {};
  if (live > 0) {
    for (size_t i = 0; i < m; ++i) ++hist[0][Digit(a[i], shifts[0])];
  }
  for (int p = 0; p < live; ++p) {
    const int shift = shifts[p];
    uint32_t* offset = hist[p % 2];
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = offset[b];
      offset[b] = sum;
      sum += c;
    }
    if (p + 1 < live) {
      const int next_shift = shifts[p + 1];
      uint32_t* next = hist[(p + 1) % 2];
      std::fill(next, next + kBuckets, 0u);
      for (size_t i = 0; i < m; ++i) {
        const uint64_t key = RadixKey(src[i]);
        ++next[(key >> next_shift) & kDigitMask];
        dst[offset[(key >> shift) & kDigitMask]++] = src[i];
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        dst[offset[Digit(src[i], shift)]++] = src[i];
      }
    }
    std::swap(src, dst);
  }
  // Equal keys kept their input order; the comparator wants id
  // descending within each run of equal weights.
  for (size_t i = 0; i < m;) {
    size_t j = i + 1;
    while (j < m && src[j].weight == src[i].weight) ++j;
    if (j - i > 1) std::sort(src + i, src + j, ByWeightDesc());
    i = j;
  }
  return src;
}

template <typename E>
void AuditNoNaN(const std::vector<E>& pool) {
#ifdef TOPK_AUDIT
  for (const E& e : pool) TOPK_CHECK(!std::isnan(e.weight));
#else
  (void)pool;
#endif
}

template <typename E>
void SelectSorted(std::vector<E>* pool, size_t k) {
  const size_t n = pool->size();
  if (n <= k) {
    std::sort(pool->begin(), pool->end(), ByWeightDesc());
    return;
  }
  Strategy strategy = ChooseStrategy(k, n);
  if (strategy == Strategy::kRadix && n < 2 * k) {
    strategy = Strategy::kNthElement;  // no free tail to sort through
  }
  switch (strategy) {
    case Strategy::kHeap:
      std::partial_sort(pool->begin(), pool->begin() + k, pool->end(),
                        ByWeightDesc());
      break;
    case Strategy::kNthElement:
      std::nth_element(pool->begin(), pool->begin() + k, pool->end(),
                       ByWeightDesc());
      std::sort(pool->begin(), pool->begin() + k, ByWeightDesc());
      break;
    case Strategy::kRadix: {
      E* a = pool->data();
      RadixSelect(a, n, k);
      const E* sorted = RadixSort(a, a + k, k);
      if (sorted != a) std::copy(sorted, sorted + k, a);
      break;
    }
  }
  pool->resize(k);
}

// The radix path of SelectTopKInto, whatever the strategy rule says
// (bench/bench_perf.cc times it directly).
template <typename E>
void RadixTopKInto(std::vector<E>* pool, size_t k, std::vector<E>* out) {
  const size_t n = pool->size();
  const size_t m = std::min(k, n);
  E* a = pool->data();
  if (n > k) RadixSelect(a, n, k);
  if (n >= 2 * m) {  // the pool's free tail is the sort buffer
    const E* sorted = RadixSort(a, a + m, m);
    out->assign(sorted, sorted + m);
    return;
  }
  out->resize(m);
  const E* sorted = RadixSort(a, out->data(), m);
  if (sorted != out->data()) std::copy(sorted, sorted + m, out->begin());
}

}  // namespace kselect_internal

// Truncates `pool` to its min(k, |pool|) heaviest elements, sorted by
// descending weight.
template <typename E>
void SelectTopK(std::vector<E>* pool, size_t k) {
  kselect_internal::AuditNoNaN(*pool);
  kselect_internal::SelectSorted(pool, k);
}

// Writes the min(k, |pool|) heaviest elements of `pool` into `out`
// (replacing its contents), sorted by descending weight; `pool` is left
// with unspecified contents. Equivalent to SelectTopK + out->assign, but
// the radix path can sort through `out` when the pool has no free tail.
template <typename E>
void SelectTopKInto(std::vector<E>* pool, size_t k, std::vector<E>* out) {
  using kselect_internal::Strategy;
  kselect_internal::AuditNoNaN(*pool);
  const size_t n = pool->size();
  if (std::min(k, n) >= kselect_internal::kRadixMinK &&
      (n <= k || kselect_internal::ChooseStrategy(k, n) == Strategy::kRadix)) {
    kselect_internal::RadixTopKInto(pool, k, out);
    return;
  }
  kselect_internal::SelectSorted(pool, k);
  out->assign(pool->begin(), pool->end());
}

// The weight of the rank-th heaviest element of `pool` (rank 1 is the
// heaviest), 1 <= rank <= |pool|, in O(|pool|) expected time; `pool` is
// left reordered. Theorem 1 reads its pivot this way: one rank of an
// unsorted candidate pool, with no selection or sort of the rest.
template <typename E>
double NthHeaviestWeight(std::vector<E>* pool, size_t rank) {
  TOPK_CHECK(rank >= 1 && rank <= pool->size());
  kselect_internal::AuditNoNaN(*pool);
  const auto nth = pool->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(pool->begin(), nth, pool->end(), ByWeightDesc());
  return nth->weight;
}

// In-place forms on a borrowed scratch pool (the zero-allocation query
// path threads ScratchVec candidate pools through here).
template <typename E>
void SelectTopKUnordered(ScratchVec<E>* pool, size_t k) {
  SelectTopKUnordered(&pool->vec(), k);
}

template <typename E>
double NthHeaviestWeight(ScratchVec<E>* pool, size_t rank) {
  return NthHeaviestWeight(&pool->vec(), rank);
}

template <typename E>
void SelectTopK(ScratchVec<E>* pool, size_t k) {
  SelectTopK(&pool->vec(), k);
}

template <typename E>
void SelectTopKInto(ScratchVec<E>* pool, size_t k, std::vector<E>* out) {
  SelectTopKInto(&pool->vec(), k, out);
}

// Convenience value-returning form.
template <typename E>
std::vector<E> TopKOf(std::vector<E> pool, size_t k) {
  SelectTopK(&pool, k);
  return pool;
}

}  // namespace topk

#endif  // TOPK_COMMON_KSELECT_H_
