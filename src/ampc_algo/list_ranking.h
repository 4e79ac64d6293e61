// AMPC list ranking in O(1/eps) measured rounds (Behnezhad et al. [3] style).
//
// Given successor pointers next[] (kNoNext for tails) and per-element values,
// computes rank(e) = sum of values from e to its list's tail, inclusive —
// the suffix-sum generalization that all Euler-tour tree operations reduce
// to. The algorithm samples each element with probability ~ 1/sqrt(M)
// (M = machine memory), lets every element walk adaptively to the next
// sampled element (expected walk sqrt(M); machines own sqrt(M) elements, so
// per-machine traffic stays ~M), recurses on the sampled sublist, and expands
// ranks back. Recursion depth is O(log N / log M) = O(1/eps); every level is
// O(1) rounds. Handles multiple disjoint lists simultaneously.
//
// Cost: sample/walk/expand rounds are measured (O(1) per level, O(1/eps)
// levels); compacting the sampled sublist is charged 1 round per level as
// `list_rank.compact[cited]` (an AMPC sort, DESIGN.md round-accounting
// policy). DHT traffic: O(N) words per level in total — each element's walk
// touches expected sqrt(M) successors but walks are what the adaptive model
// prices as reads, so per-machine traffic stays ~M = O(n^eps) w.h.p.
#pragma once

#include <cstdint>
#include <vector>

#include "ampc/runtime.h"

namespace ampccut::ampc {

inline constexpr std::uint64_t kNoNext = static_cast<std::uint64_t>(-1);

// rank[e] = value[e] + value[next[e]] + ... + value[tail]. Values may be
// negative (depth computations need signed deltas).
std::vector<std::int64_t> list_rank(Runtime& rt,
                                    const std::vector<std::uint64_t>& next,
                                    const std::vector<std::int64_t>& value,
                                    std::uint64_t seed = 0x11aa22bb);

// Multi-column variant: ranks several value columns over the SAME successor
// structure in the SAME rounds (the walks are identical; only the carried
// accumulators differ). The tree pipeline leans on this — e.g. depth deltas
// and preorder flags ride one ranking instead of paying the round cost
// twice. Returns one rank vector per input column; takes one or two columns
// (the widest caller's need).
std::vector<std::vector<std::int64_t>> list_rank_multi(
    Runtime& rt, const std::vector<std::uint64_t>& next,
    const std::vector<std::vector<std::int64_t>>& value_columns,
    std::uint64_t seed = 0x11aa22bb);

}  // namespace ampccut::ampc
