// APX-SPLIT in AMPC (Algorithm 4 / Theorem 2): O(k log log n) rounds.
//
// Each greedy iteration needs a (2+eps)-approximate min cut inside every
// current component. A component's cut stays valid until it is split
// (mincut/kcut.h), so an iteration solves only its *newly created*
// components — in the model these run in parallel, so an iteration costs
// the MAXIMUM model rounds over its newly solved components plus O(1)
// rounds for counting components (cited from Behnezhad et al. [4], as the
// paper does in the proof of Theorem 2).
//
// Cost: k-1 iterations of the Theorem 1 min-cut report (mincut_ampc.h:
// measured tracker rounds + charged MSF/sort/RMQ rounds), so
// O(k log log n) model rounds total. DHT traffic per iteration is the sum
// of the min-cut traffic over that iteration's newly solved components —
// they are disjoint, so an iteration's total stays O((n + m) log n) words
// and shrinks as cuts split the graph.
#pragma once

#include <cstdint>

#include "ampc_algo/mincut_ampc.h"
#include "mincut/kcut.h"

namespace ampccut::ampc {

struct AmpcKCutReport {
  ApproxKCutResult result;
  std::uint64_t measured_rounds = 0;
  std::uint64_t charged_rounds = 0;

  // Strict-budget reruns summed over every component min-cut call
  // (mincut_ampc.h).
  std::uint64_t budget_degradations = 0;

  [[nodiscard]] std::uint64_t model_rounds() const {
    return measured_rounds + charged_rounds;
  }
};

AmpcKCutReport ampc_apx_split_k_cut(const WGraph& g, std::uint32_t k,
                                    const AmpcMinCutOptions& opt = {});

}  // namespace ampccut::ampc
