// Segmented minimum prefix sums in O(1/eps) AMPC rounds (Theorem 5,
// Behnezhad et al. [2]), the variant Lemma 14 needs: many independent
// sequences (one per bag leader) swept in the same rounds.
//
// Structure: a B-ary reduction tree with B = machine memory. Each tier is one
// round; tiers = ceil(log_B N) = O(1/eps). Summaries carry (sum, min-prefix,
// argmin) so the final answer locates the witness timestamp.
//
// Cost: all rounds measured (one leaf round over value blocks, then one
// combine round per further tier), nothing charged. DHT traffic per tier is
// O(N) words total — every element read once, one summary written per
// block — and O(B) = O(n^eps) per machine, tight against the budget by
// construction.
#pragma once

#include <cstdint>
#include <vector>

#include "ampc/runtime.h"

namespace ampccut::ampc {

struct MinPrefixResult {
  std::int64_t min_prefix = 0;  // min over the segment's non-empty prefixes
  std::uint64_t argmin = 0;     // index attaining it (first one)
};

// Segmented variant: `values` is the concatenation of independent sequences;
// segment s spans [offsets[s], offsets[s+1]). Returns one MinPrefixResult per
// segment (argmin is relative to the segment start). Empty segments yield
// {INT64_MAX, 0}. All segments are processed in the same O(1/eps) rounds.
std::vector<MinPrefixResult> segmented_min_prefix_sum(
    Runtime& rt, const std::vector<std::int64_t>& values,
    const std::vector<std::uint64_t>& offsets);

}  // namespace ampccut::ampc
