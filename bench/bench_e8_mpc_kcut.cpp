// E8 (Corollary 1): the MPC k-cut wrapper — (4+eps)-approximate Min k-Cut in
// O(k log n log log n) MPC rounds. Complements E4's AMPC table; the paper's
// point is the log n gap between the two columns at every k.
#include <cmath>

#include "ampc_algo/kcut_ampc.h"
#include "bench_util.h"
#include "graph/generators.h"
#include "mpc/gn_baseline.h"

using namespace ampccut;
using namespace ampccut::bench;

int main(int argc, char** argv) {
  const Mode mode = mode_of(argc, argv);
  const std::uint32_t threads = threads_of(argc, argv);
  BenchReporter rep("e8_mpc_kcut");
  // AMPC tracker runtimes + table pools persist across the k sweep.
  ampc::RuntimeArena arena;
  const VertexId size = mode == Mode::kFull ? 512 : 256;
  const std::uint32_t kmax =
      mode == Mode::kSmoke ? 3u : (mode == Mode::kFull ? 6u : 5u);
  std::printf("E8 / Corollary 1 — MPC k-cut rounds vs k (community graphs, "
              "n=%u)\n\n", size);
  TablePrinter t({"k", "mpc_w", "mpc_rounds", "ampc_w", "ampc_rounds",
                  "k*log2(n)*loglog"});
  for (std::uint32_t k = 2; k <= kmax; ++k) {
    const WGraph g = gen_communities(size, k, 8.0 / size, 2, 41 + k);
    mpc::MpcMinCutOptions mo;
    mo.recursion.seed = 5;
    mo.recursion.trials = 1;
    mo.recursion.threads = threads;
    mpc::MpcKCutReport mpc_r;
    const double mpc_ns =
        time_once_ns([&] { mpc_r = mpc::mpc_gn_k_cut(g, k, mo); });
    ampc::AmpcMinCutOptions ao;
    ao.recursion.seed = 5;
    ao.recursion.trials = 1;
    ao.recursion.threads = threads;
    ao.arena = &arena;
    ampc::AmpcKCutReport ampc_r;
    const double ampc_ns =
        time_once_ns([&] { ampc_r = ampc::ampc_apx_split_k_cut(g, k, ao); });
    const double lg = std::log2(static_cast<double>(g.n));
    t.add_row({fmt_u(k), fmt_u(mpc_r.result.weight), fmt_u(mpc_r.rounds),
               fmt_u(ampc_r.result.weight), fmt_u(ampc_r.model_rounds()),
               fmt(k * lg * std::log2(lg), 0)});

    BenchResult rm;
    rm.name = "mpc_gn_k_cut";
    rm.params["k"] = k;
    rm.params["n"] = g.n;
    rm.ns_per_op = mpc_ns;
    rm.iterations = 1;
    rm.measured_rounds = mpc_r.rounds;
    rm.model_rounds = mpc_r.rounds;
    rm.extra["weight"] = static_cast<double>(mpc_r.result.weight);
    rm.extra["splitter_calls"] =
        static_cast<double>(mpc_r.result.splitter_calls);
    rep.add(std::move(rm));

    BenchResult ra;
    ra.name = "ampc_apx_split_k_cut";
    ra.params["k"] = k;
    ra.params["n"] = g.n;
    ra.ns_per_op = ampc_ns;
    ra.iterations = 1;
    ra.measured_rounds = ampc_r.measured_rounds;
    ra.charged_rounds = ampc_r.charged_rounds;
    ra.model_rounds = ampc_r.model_rounds();
    ra.extra["weight"] = static_cast<double>(ampc_r.result.weight);
    ra.extra["splitter_calls"] =
        static_cast<double>(ampc_r.result.splitter_calls);
    rep.add(std::move(ra));
  }
  t.print();
  std::printf("\nShape check: both columns grow linearly in k; the MPC "
              "column carries the extra log n factor (Corollary 1 vs "
              "Theorem 2).\n");
  return finish(argc, argv, rep);
}
