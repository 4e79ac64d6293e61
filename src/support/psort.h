// Deterministic parallel sort/partition primitives (DESIGN.md "Parallel sort
// & counting primitives").
//
// Two primitives, both running on a caller-supplied ThreadPool and both
// bit-identical to their sequential counterparts at every thread count:
//
//  * stable_sort_keys — stable parallel merge sort. The input is cut at
//    fixed split points derived from the input size alone (never from the
//    pool width or scheduling), blocks are pre-sorted independently, and
//    runs are merged along a fixed binary tree. Large merges are themselves
//    partitioned at fixed *output* positions via a stable co-rank search, so
//    every level is fully parallel. A stable sort's output is unique for a
//    given strict weak order, so every schedule — and the sequential
//    std::stable_sort fallback — produces the same bytes.
//  * radix_rank — stable parallel counting sort ("rank by bounded integer
//    key"): per-block histograms, one key-major offset scan, per-block
//    stable scatter. Optionally reports the per-key group offsets, for
//    callers that group items by key: ampc_root_tree builds its Euler-tour
//    arc CSR with it, the offsets serving as the CSR offsets.
//
// Sequential fallback: pool == nullptr, a 1-thread pool, or inputs below
// kSeqCutoff run the plain sequential algorithm inline on the caller —
// the same contract as ThreadPool::parallel_for. The primitives may be
// called from inside pool tasks (nested parallel_for is part of the pool's
// contract); they never take locks of their own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.h"
#include "support/threadpool.h"

namespace ampccut::psort {

// Inputs below this size always take the sequential path: at ~8k elements
// the parallel_for posting overhead is on the order of the sort itself.
inline constexpr std::size_t kSeqCutoff = 1 << 13;

// Number of blocks the primitives cut an input of n elements into. A pure
// function of n (power of two, capped), NEVER of the pool width: the block
// structure — and with it every intermediate buffer — is identical no
// matter how many threads execute it.
std::size_t plan_blocks(std::size_t n);

// Blocks for a counting pass over n items with `num_keys` distinct keys.
// Pure function of (n, num_keys): shrinks the block count when the
// per-block histogram matrix (blocks x num_keys) would dominate memory.
std::size_t plan_radix_blocks(std::size_t n, std::size_t num_keys);

// Boundary `part` of a balanced split of [0, n) into `parts` pieces
// (piece sizes differ by at most one). split_point(n, parts, 0) == 0 and
// split_point(n, parts, parts) == n.
inline std::size_t split_point(std::size_t n, std::size_t parts,
                               std::size_t part) {
  return n / parts * part + std::min(part, n % parts);
}

namespace detail {

// Stable co-rank: for output position k of merging sorted runs a[0..la) and
// b[0..lb) with ties taken from `a` first (the std::merge convention),
// returns how many elements of `a` land strictly before position k. The
// split depends only on the data, so cutting a merge at fixed output
// positions yields scheduling-independent slices.
template <class T, class Less>
std::size_t stable_corank(std::size_t k, const T* a, std::size_t la,
                          const T* b, std::size_t lb, const Less& less) {
  std::size_t lo = k > lb ? k - lb : 0;
  std::size_t hi = std::min(k, la);
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;  // i < hi <= la
    const std::size_t j = k - i;
    // !less(b[j-1], a[i]) means a[i] precedes-or-ties b[j-1]; the tie-favored
    // a[i] must then be consumed before b[j-1], so the split needs more of a.
    if (j > 0 && !less(b[j - 1], a[i])) {
      lo = i + 1;
    } else {
      hi = i;
    }
  }
  return lo;
}

// One parallel merge task: src[a0,a1) merged with src[b0,b1) into dst[out..).
struct MergeSlice {
  std::size_t a0, a1, b0, b1, out;
};

}  // namespace detail

// Stable parallel sort of data[0..n) by `less`. Bit-identical to
// std::stable_sort(data, data + n, less) for every pool and thread count
// (stability makes the output unique). Callers sorting an ascending index
// vector get the (key, index) order for free — stability IS the index
// tie-break, matching the documented contraction.cpp comparator contract.
template <class T, class Less>
void stable_sort_keys(ThreadPool* pool, T* data, std::size_t n, Less less) {
  if (pool == nullptr || pool->num_threads() <= 1 || n < kSeqCutoff) {
    std::stable_sort(data, data + n, less);
    return;
  }
  const std::size_t blocks = plan_blocks(n);
  std::vector<std::size_t> bounds(blocks + 1);
  for (std::size_t b = 0; b <= blocks; ++b) {
    bounds[b] = split_point(n, blocks, b);
  }
  pool->parallel_for(blocks, [&](std::size_t b) {
    std::stable_sort(data + bounds[b], data + bounds[b + 1], less);
  });

  std::vector<T> scratch(n);
  T* src = data;
  T* dst = scratch.data();
  std::vector<detail::MergeSlice> slices;
  for (std::size_t width = 1; width < blocks; width *= 2) {
    slices.clear();
    for (std::size_t r = 0; r < blocks; r += 2 * width) {
      const std::size_t lo = bounds[r];
      const std::size_t mid = bounds[std::min(blocks, r + width)];
      const std::size_t hi = bounds[std::min(blocks, r + 2 * width)];
      const std::size_t total = hi - lo;
      const std::size_t chunks = total >= kSeqCutoff ? plan_blocks(total) : 1;
      std::size_t prev_k = 0;
      std::size_t prev_i = 0;
      for (std::size_t c = 1; c <= chunks; ++c) {
        const std::size_t k = split_point(total, chunks, c);
        const std::size_t i =
            c == chunks ? mid - lo
                        : detail::stable_corank(k, src + lo, mid - lo,
                                                src + mid, hi - mid, less);
        slices.push_back({lo + prev_i, lo + i, mid + (prev_k - prev_i),
                          mid + (k - i), lo + prev_k});
        prev_k = k;
        prev_i = i;
      }
    }
    pool->parallel_for(slices.size(), [&](std::size_t s) {
      const detail::MergeSlice& t = slices[s];
      std::merge(src + t.a0, src + t.a1, src + t.b0, src + t.b1, dst + t.out,
                 less);
    });
    std::swap(src, dst);
  }
  if (src != data) {
    pool->parallel_for(blocks, [&](std::size_t b) {
      std::copy(src + bounds[b], src + bounds[b + 1], data + bounds[b]);
    });
  }
}

template <class T, class Less>
void stable_sort_keys(ThreadPool* pool, std::vector<T>& v, Less less) {
  stable_sort_keys(pool, v.data(), v.size(), std::move(less));
}

// Stable parallel counting sort: permutes in[0..n) into out[0..n) ascending
// by key_of(item) in [0, num_keys), equal keys in input order. out must not
// alias in. If group_offsets is non-null it receives num_keys + 1 entries
// with (*group_offsets)[k] = first output slot of key k (and [num_keys] = n),
// i.e. the rank of each key group. Bit-identical to the sequential two-pass
// counting sort for every pool: the per-block decomposition only reorders
// *additions* into the histogram, and the scatter writes each stable slot
// exactly once.
template <class T, class KeyFn>
void radix_rank(ThreadPool* pool, const T* in, T* out, std::size_t n,
                std::size_t num_keys, KeyFn key_of,
                std::vector<std::size_t>* group_offsets = nullptr) {
  REPRO_CHECK(num_keys >= 1);
  const std::size_t blocks = plan_radix_blocks(n, num_keys);
  if (pool == nullptr || pool->num_threads() <= 1 || blocks <= 1) {
    std::vector<std::size_t> counts(num_keys + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      REPRO_DCHECK(key_of(in[i]) < num_keys);
      ++counts[key_of(in[i]) + 1];
    }
    for (std::size_t k = 0; k < num_keys; ++k) counts[k + 1] += counts[k];
    if (group_offsets != nullptr) *group_offsets = counts;
    for (std::size_t i = 0; i < n; ++i) out[counts[key_of(in[i])]++] = in[i];
    return;
  }
  std::vector<std::size_t> bounds(blocks + 1);
  for (std::size_t b = 0; b <= blocks; ++b) {
    bounds[b] = split_point(n, blocks, b);
  }
  std::vector<std::size_t> counts(blocks * num_keys, 0);
  pool->parallel_for(blocks, [&](std::size_t b) {
    std::size_t* c = counts.data() + b * num_keys;
    for (std::size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      // An out-of-range key would corrupt the histogram matrix silently;
      // debug builds trip here instead (release keeps the loop tight).
      REPRO_DCHECK(key_of(in[i]) < num_keys);
      ++c[key_of(in[i])];
    }
  });
  // Key-major exclusive scan turns counts into start offsets per (key,
  // block): all of key k's slots precede key k+1's, and within a key the
  // blocks land in block order — which is input order, hence stability.
  std::size_t running = 0;
  if (group_offsets != nullptr) group_offsets->assign(num_keys + 1, 0);
  for (std::size_t k = 0; k < num_keys; ++k) {
    if (group_offsets != nullptr) (*group_offsets)[k] = running;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::size_t& slot = counts[b * num_keys + k];
      const std::size_t c = slot;
      slot = running;
      running += c;
    }
  }
  REPRO_CHECK(running == n);
  if (group_offsets != nullptr) (*group_offsets)[num_keys] = n;
  pool->parallel_for(blocks, [&](std::size_t b) {
    std::size_t* c = counts.data() + b * num_keys;
    for (std::size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      out[c[key_of(in[i])]++] = in[i];
    }
  });
}

}  // namespace ampccut::psort
