// Page-id sets as sorted, duplicate-free vectors.
//
// Page read/write sets flow through every layer of the system: the MMU
// tracking collects them per sub-computation, the recorder stores them
// on CPG nodes, the journal persists them, and every provenance query
// intersects them. Keeping them sorted end-to-end means membership is a
// binary search, intersection is a linear merge, and no layer ever pays
// a hash-set-to-sorted-vector conversion.
//
// The intersection and gallop kernels here sit on the hot path of
// every dependence and race query, so they are written branch-reduced
// (cmov-friendly stepping, block-wise SSE-width equality scans with a
// scalar tail). The straightforward scalar forms are kept in
// detail::*_scalar -- bench_micro's threshold checks hold the fast
// kernels to a measured speedup over them, and the unit tests hold
// them to exact result equality.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif

namespace inspector {

/// A set of page ids, stored sorted and duplicate-free.
using PageSet = std::vector<std::uint64_t>;

/// Membership by binary search.
[[nodiscard]] inline bool page_set_contains(const PageSet& set,
                                            std::uint64_t page) noexcept {
  return std::binary_search(set.begin(), set.end(), page);
}

/// Restore the sorted/unique invariant on an arbitrary vector.
inline void page_set_normalize(PageSet& set) {
  if (!std::is_sorted(set.begin(), set.end())) {
    std::sort(set.begin(), set.end());
  }
  set.erase(std::unique(set.begin(), set.end()), set.end());
}

inline constexpr std::size_t kGallopRatio = 8;

namespace detail {

/// Reference gallop: doubling probes + std::lower_bound. The baseline
/// bench_micro measures the branch-reduced form against.
[[nodiscard]] inline std::size_t page_set_gallop_scalar(
    std::span<const std::uint64_t> set, std::size_t from,
    std::uint64_t page) noexcept {
  const std::size_t n = set.size();
  if (from >= n || set[from] >= page) return from;
  std::size_t step = 1;
  std::size_t lo = from;  // invariant: set[lo] < page
  while (lo + step < n && set[lo + step] < page) {
    lo += step;
    step *= 2;
  }
  const std::size_t hi = std::min(lo + step, n);
  return static_cast<std::size_t>(
      std::lower_bound(set.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                       set.begin() + static_cast<std::ptrdiff_t>(hi), page) -
      set.begin());
}

/// Reference intersection: skew-gallop or plain branchy merge, no
/// range fence. The baseline the fast kernel is benched against.
[[nodiscard]] inline std::optional<std::uint64_t>
page_set_first_intersection_scalar(const PageSet& a, const PageSet& b,
                                   const PageSet& ignored) {
  const bool skewed = a.size() > kGallopRatio * b.size() ||
                      b.size() > kGallopRatio * a.size();
  if (skewed) {
    const PageSet& small = a.size() <= b.size() ? a : b;
    const std::span<const std::uint64_t> big = a.size() <= b.size() ? b : a;
    std::size_t pos = 0;
    for (std::uint64_t page : small) {
      pos = page_set_gallop_scalar(big, pos, page);
      if (pos == big.size()) break;
      if (big[pos] == page && !page_set_contains(ignored, page)) return page;
    }
    return std::nullopt;
  }
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      if (!page_set_contains(ignored, *ia)) return *ia;
      ++ia;
      ++ib;
    }
  }
  return std::nullopt;
}

#if defined(__SSE2__)
/// 64-bit lane equality. SSE4.1 has it natively; on plain SSE2 a lane
/// is equal iff both of its 32-bit halves compare equal.
[[nodiscard]] inline __m128i cmpeq_u64x2(__m128i a, __m128i b) noexcept {
#if defined(__SSE4_1__)
  return _mm_cmpeq_epi64(a, b);
#else
  const __m128i eq32 = _mm_cmpeq_epi32(a, b);
  return _mm_and_si128(eq32,
                       _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
#endif
}
#endif

}  // namespace detail

/// Galloping (exponential-search) lower bound: the first index i in
/// [from, set.size()) with set[i] >= page. Doubling probes from `from`
/// cost O(log d) where d is the distance advanced, so a walk that calls
/// this repeatedly with its previous result is O(m log(n/m)) over the
/// whole set -- the win over plain binary search when the caller's keys
/// are clustered near the cursor, and over a linear merge when one set
/// is much larger than the other. The closing binary search runs
/// branchless (conditional-move stepping), so the probe phase's
/// perfectly-predictable loop is not followed by log2(step) mispredicts.
[[nodiscard]] inline std::size_t page_set_gallop(
    std::span<const std::uint64_t> set, std::size_t from,
    std::uint64_t page) noexcept {
  const std::size_t n = set.size();
  if (from >= n || set[from] >= page) return from;
  std::size_t step = 1;
  std::size_t lo = from;  // invariant: set[lo] < page
  while (lo + step < n && set[lo + step] < page) {
    lo += step;
    step *= 2;
  }
  const std::size_t hi = std::min(lo + step, n);
  // Branchless lower_bound over (lo, hi]: each round halves the
  // window with a conditional move instead of a compare branch.
  std::size_t first = lo + 1;
  std::size_t len = hi - first;
  while (len > 0) {
    const std::size_t half = len >> 1;
    const bool less = set[first + half] < page;
    first += less ? half + 1 : 0;
    len = less ? len - half - 1 : half;
  }
  return first;
}

/// The position of `page` in the sorted universe `set` (its dense page
/// index), if the universe holds it.
[[nodiscard]] inline std::optional<std::size_t> page_index(
    std::span<const std::uint64_t> set, std::uint64_t page) noexcept {
  const auto it = std::lower_bound(set.begin(), set.end(), page);
  if (it == set.end() || *it != page) return std::nullopt;
  return static_cast<std::size_t>(it - set.begin());
}

/// Smallest element common to `a` and `b` but not in `ignored`.
/// Disjoint ranges exit before any loop (the sorted invariant gives
/// the fences for free). Near-equal sizes use a merge that scans
/// SSE-width blocks (two u64 lanes against both rotations of the
/// other side, so every cross pair is compared) and falls to a
/// branch-reduced scalar merge on a potential match or at the tails;
/// when one set is kGallopRatio-fold larger, the walk iterates the
/// small set and gallops through the large one instead of visiting
/// every element. Results are exactly those of the scalar reference.
[[nodiscard]] inline std::optional<std::uint64_t> page_set_first_intersection(
    const PageSet& a, const PageSet& b, const PageSet& ignored) {
  // Range fence: one set ending before the other begins cannot
  // intersect -- two loads instead of a full merge.
  if (a.empty() || b.empty() || a.back() < b.front() ||
      b.back() < a.front()) {
    return std::nullopt;
  }
  const bool skewed = a.size() > kGallopRatio * b.size() ||
                      b.size() > kGallopRatio * a.size();
  if (skewed) {
    const PageSet& small = a.size() <= b.size() ? a : b;
    const std::span<const std::uint64_t> big = a.size() <= b.size() ? b : a;
    std::size_t pos = 0;
    for (std::uint64_t page : small) {
      pos = page_set_gallop(big, pos, page);
      if (pos == big.size()) break;
      if (big[pos] == page && !page_set_contains(ignored, page)) return page;
    }
    return std::nullopt;
  }
  std::size_t ia = 0;
  std::size_t ib = 0;
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
#if defined(__SSE2__)
  // Block scan: compare a[ia..ia+1] against b[ib..ib+1] and its lane
  // swap -- all four cross pairs per round. No match means the block
  // with the smaller maximum cannot intersect anything ahead (later
  // elements on the other side are strictly larger), so it advances
  // whole; equal maxima are themselves a match, so exactly one side
  // advances per round. A hit breaks to the scalar merge, which finds
  // the first match in order and applies `ignored`.
  while (ia + 2 <= na && ib + 2 <= nb) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        a.data() + ia));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        b.data() + ib));
    const __m128i vb_swap = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m128i eq = _mm_or_si128(detail::cmpeq_u64x2(va, vb),
                                    detail::cmpeq_u64x2(va, vb_swap));
    if (_mm_movemask_epi8(eq) != 0) break;
    const std::uint64_t amax = a[ia + 1];
    const std::uint64_t bmax = b[ib + 1];
    ia += amax < bmax ? 2 : 0;
    ib += bmax < amax ? 2 : 0;
  }
#endif
  // Branch-reduced merge: the non-match steps compile to conditional
  // increments instead of a three-way branch.
  while (ia < na && ib < nb) {
    const std::uint64_t va = a[ia];
    const std::uint64_t vb = b[ib];
    if (va == vb) {
      if (!page_set_contains(ignored, va)) return va;
      ++ia;
      ++ib;
    } else {
      ia += va < vb ? 1 : 0;
      ib += vb < va ? 1 : 0;
    }
  }
  return std::nullopt;
}

}  // namespace inspector
