// Kernelize-then-solve front-ends for the exact drivers. Each reduces the
// input, solves the (smaller) kernel with the wrapped solver, and unpacks
// the certificate through the lineage — exact whenever the wrapped solver
// is. With opt.enabled == false they defer to the plain solver, so call
// sites can thread one KernelOptions knob through unconditionally.
//
// The recursion drivers (mincut_recursive / kcut / AMPC / MPC) get the same
// treatment through ApproxMinCutOptions::kernel rather than wrappers here.
#pragma once

#include "exact/stoer_wagner.h"
#include "kernel/kernel.h"

namespace ampccut::kernel {

MinCutResult stoer_wagner_min_cut_kernelized(
    const WGraph& g, const KernelOptions& opt = enabled_defaults());

}  // namespace ampccut::kernel
