// Ghaffari–Nowicki-shaped MPC baseline: the same boosted recursion as
// Algorithm 1, with per-level tracker work costed at MPC prices.
//
// GN [11] run the identical structure (random weights -> MST -> low-depth
// decomposition -> singleton tracking) but every tree-structured step costs
// Theta(log n) MPC rounds: MST via Boruvka and tour positions via pointer
// doubling. We execute those two primitives for real on the MPC simulator
// (their measured rounds carry the log n factor the paper's Theorem 1
// removes) and take the cut values from the exact sequential oracle tracker,
// so quality matches and only the model cost differs. Corollary 1's
// k-cut wrapper composes it with APX-SPLIT.
#pragma once

#include <cstdint>

#include "mincut/kcut.h"
#include "mincut/mincut_recursive.h"
#include "mpc/runtime.h"

namespace ampccut::mpc {

struct MpcMinCutOptions {
  ApproxMinCutOptions recursion;
  std::size_t num_machines = 64;
};

struct MpcMinCutReport {
  Weight weight = kInfiniteWeight;
  std::vector<std::uint8_t> side;
  RecursionStats stats;
  std::uint64_t rounds = 0;     // sum over levels of per-level max
  std::uint64_t messages = 0;   // total communication words
  std::uint32_t levels_used = 0;
};

// (2+eps)-approximate min cut, O(log n log log n) measured MPC rounds.
MpcMinCutReport mpc_gn_min_cut(const WGraph& g,
                               const MpcMinCutOptions& opt = {});

struct MpcKCutReport {
  ApproxKCutResult result;
  std::uint64_t rounds = 0;
};

// Corollary 1: (4+eps)-approximate k-cut in O(k log n log log n) MPC rounds.
MpcKCutReport mpc_gn_k_cut(const WGraph& g, std::uint32_t k,
                           const MpcMinCutOptions& opt = {});

}  // namespace ampccut::mpc
