// E4 (Theorem 2): APX-SPLIT — (4+eps)-approximate Min k-Cut in
// O(k log log n) AMPC rounds. Sweeps k on community graphs; quality against
// exact brute force (small n) and the Gomory–Hu (2-2/k) baseline; rounds
// against the k * loglog n reference.
#include <cmath>

#include "ampc_algo/kcut_ampc.h"
#include "bench_util.h"
#include "exact/brute_force.h"
#include "flow/gomory_hu.h"
#include "graph/generators.h"
#include "kernel/kernel.h"

using namespace ampccut;
using namespace ampccut::bench;

int main(int argc, char** argv) {
  const Mode mode = mode_of(argc, argv);
  const std::uint32_t threads = threads_of(argc, argv);
  BenchReporter rep("e4_kcut");
  // Shared across every solve of the sweep: tracker runtimes and their table
  // pools persist between k values (results/metrics unaffected — DESIGN.md
  // "Table and runtime pooling").
  ampc::RuntimeArena arena;

  std::printf("E4a / Theorem 2 — quality vs exact k-cut (n=10 ER graphs, 3 "
              "seeds averaged)\n\n");
  TablePrinter ta({"k", "avg_ratio_exact", "max_ratio", "bound(4+eps)"});
  const std::uint32_t quality_kmax = mode == Mode::kSmoke ? 3u : 5u;
  for (std::uint32_t k = 2; k <= quality_kmax; ++k) {
    double sum = 0, worst = 0;
    const int seeds = 3;
    for (int s = 0; s < seeds; ++s) {
      const WGraph g = gen_erdos_renyi(10, 0.5, 77 + s);
      ampc::AmpcMinCutOptions o;
      o.recursion.seed = s;
      o.recursion.trials = 2;
      o.recursion.threads = threads;
      o.arena = &arena;
      const auto got = ampc::ampc_apx_split_k_cut(g, k, o);
      const auto exact = brute_force_min_k_cut(g, k);
      const double ratio = static_cast<double>(got.result.weight) /
                           static_cast<double>(std::max<Weight>(1, exact.weight));
      sum += ratio;
      worst = std::max(worst, ratio);
    }
    ta.add_row({fmt_u(k), fmt(sum / seeds), fmt(worst), "4.9"});

    BenchResult r;
    r.name = "apx_split_quality";
    r.group = "exact";  // tiny instances; only the ratio matters here
    r.params["k"] = k;
    r.params["n"] = 10;
    r.iterations = seeds;
    r.extra["avg_ratio_exact"] = sum / seeds;
    r.extra["max_ratio"] = worst;
    rep.add(std::move(r));
  }
  ta.print();

  // E4b prices the peeling regime: each community is a random Hamiltonian
  // path plus sparse extras, so the lowest-degree vertices (path endpoints
  // with few extras) sit below the 4-edge ring cut and every APX-SPLIT pass
  // cuts off one vertex (splitter_calls = k - 1). E4r below prices the
  // bridge-cut regime.
  std::printf("\nE4b — rounds vs k (sparse community graphs, each pass "
              "peels one low-degree vertex)\n\n");
  TablePrinter tb({"k", "n", "kcut_w", "gh_baseline_w", "rounds(meas+cited)",
                   "k*loglog(n)"});
  const VertexId size = mode == Mode::kFull ? 1024 : 512;
  const std::uint32_t kmax =
      mode == Mode::kSmoke ? 3u : (mode == Mode::kFull ? 8u : 6u);
  for (std::uint32_t k = 2; k <= kmax; ++k) {
    const WGraph g = gen_communities(size, k, 8.0 / size, 2, 31 + k);
    ampc::AmpcMinCutOptions o;
    o.recursion.seed = 5;
    o.recursion.trials = 1;
    o.recursion.threads = threads;
    o.arena = &arena;
    ampc::AmpcKCutReport got;
    const double ns =
        time_once_ns([&] { got = ampc::ampc_apx_split_k_cut(g, k, o); });
    const auto gh = gomory_hu_k_cut(g, k);
    const double ll = std::log2(std::log2(static_cast<double>(g.n)));
    tb.add_row({fmt_u(k), fmt_u(g.n), fmt_u(got.result.weight),
                fmt_u(gh.weight),
                fmt_u(got.measured_rounds) + "+" + fmt_u(got.charged_rounds),
                fmt(k * ll, 1)});

    BenchResult r;
    r.name = "ampc_apx_split_k_cut";
    r.params["k"] = k;
    r.params["n"] = g.n;
    r.ns_per_op = ns;
    r.iterations = 1;
    r.measured_rounds = got.measured_rounds;
    r.charged_rounds = got.charged_rounds;
    r.model_rounds = got.model_rounds();
    r.extra["weight"] = static_cast<double>(got.result.weight);
    r.extra["gomory_hu_weight"] = static_cast<double>(gh.weight);
    r.extra["splitter_calls"] =
        static_cast<double>(got.result.splitter_calls);
    rep.add(std::move(r));
  }
  tb.print();

  // E4k — kernelized APX-SPLIT on SPARSE community graphs (avg in-community
  // degree ~3): every split's exact/recursive solve runs on the kernel of
  // its component, compounding the reduction across the k-1 splits. The
  // kernel is exact, so the kernelized sweep must report the same k-cut
  // weight; divergence aborts the bench.
  std::printf("\nE4k — kernelized APX-SPLIT (sparse communities, kernel off "
              "vs on)\n\n");
  TablePrinter tc({"k", "n", "kernel_n", "kernel_m", "w", "ms_off", "ms_on",
                   "speedup"});
  const VertexId kern_n = mode == Mode::kFull ? 2048 : 512;
  const std::uint32_t kern_kmax = mode == Mode::kSmoke ? 3u : 4u;
  for (std::uint32_t k = 2; k <= kern_kmax; ++k) {
    const WGraph g =
        gen_communities(kern_n, k, 1.0 * k / kern_n, 2, 91 + k);
    ampc::AmpcMinCutOptions o;
    o.recursion.seed = 5;
    o.recursion.trials = 1;
    o.recursion.threads = threads;
    o.arena = &arena;
    ampc::AmpcKCutReport off;
    const double ns_off =
        time_once_ns([&] { off = ampc::ampc_apx_split_k_cut(g, k, o); });
    o.recursion.kernel = kernel::enabled_defaults();
    ampc::AmpcKCutReport on;
    const double ns_on =
        time_once_ns([&] { on = ampc::ampc_apx_split_k_cut(g, k, o); });
    if (on.result.weight != off.result.weight) {
      std::printf("FATAL: kernelized k-cut weight %llu != unkernelized %llu "
                  "at k=%u\n",
                  static_cast<unsigned long long>(on.result.weight),
                  static_cast<unsigned long long>(off.result.weight), k);
      return 1;
    }

    const kernel::KernelResult kk =
        kernel::kernelize(g, kernel::enabled_defaults());
    const double speedup = ns_off / std::max(1.0, ns_on);
    tc.add_row({fmt_u(k), fmt_u(g.n), fmt_u(kk.stats.kernel_n),
                fmt_u(kk.stats.kernel_m), fmt_u(on.result.weight),
                fmt(ns_off / 1e6, 1), fmt(ns_on / 1e6, 1), fmt(speedup)});

    BenchResult r;
    r.name = "ampc_apx_split_k_cut_kernelized";
    r.params["k"] = k;
    r.params["n"] = g.n;
    r.ns_per_op = ns_on;
    r.iterations = 1;
    r.measured_rounds = on.measured_rounds;
    r.charged_rounds = on.charged_rounds;
    r.model_rounds = on.model_rounds();
    r.extra["weight"] = static_cast<double>(on.result.weight);
    r.extra["splitter_calls"] = static_cast<double>(on.result.splitter_calls);
    r.extra["kernel_n"] = static_cast<double>(kk.stats.kernel_n);
    r.extra["kernel_m"] = static_cast<double>(kk.stats.kernel_m);
    r.extra["n_reduction_ratio"] =
        static_cast<double>(kk.stats.kernel_n) / static_cast<double>(g.n);
    r.extra["m_reduction_ratio"] =
        static_cast<double>(kk.stats.kernel_m) / static_cast<double>(g.m());
    r.extra["ns_base"] = ns_off;
    r.extra["speedup_vs_unkernelized"] = speedup;
    rep.add(std::move(r));
  }
  tc.print();

  // E4r — APX-SPLIT reuse probe. On the E4b/E4k graphs every cut peels off
  // a path endpoint, so each pass has one splittable component and solving
  // each component once makes the same calls as re-solving all of them.
  // Dense communities (degree ~16 > the 4-edge ring cut) make every split
  // a bridge cut with two multi-vertex parts: reuse calls the splitter
  // 1 + 2(k-2) times, re-solving k(k-1)/2 times.
  std::printf("\nE4r — APX-SPLIT splitter calls (dense communities)\n\n");
  TablePrinter tr({"k", "n", "w", "splitter_calls", "1+2(k-2)"});
  for (const std::uint32_t k : {4u, 6u}) {
    const WGraph g = gen_communities(32 * k, k, 0.5, 2, 61 + k);
    ampc::AmpcMinCutOptions o;
    o.recursion.seed = 5;
    o.recursion.trials = 1;
    o.recursion.threads = threads;
    o.arena = &arena;
    ampc::AmpcKCutReport got;
    const double ns =
        time_once_ns([&] { got = ampc::ampc_apx_split_k_cut(g, k, o); });
    tr.add_row({fmt_u(k), fmt_u(g.n), fmt_u(got.result.weight),
                fmt_u(got.result.splitter_calls), fmt_u(1 + 2 * (k - 2))});

    BenchResult r;
    r.name = "ampc_apx_split_k_cut_reuse";
    r.params["k"] = k;
    r.params["n"] = g.n;
    r.ns_per_op = ns;
    r.iterations = 1;
    r.measured_rounds = got.measured_rounds;
    r.charged_rounds = got.charged_rounds;
    r.model_rounds = got.model_rounds();
    r.extra["weight"] = static_cast<double>(got.result.weight);
    r.extra["splitter_calls"] =
        static_cast<double>(got.result.splitter_calls);
    rep.add(std::move(r));
  }
  tr.print();
  std::printf("\nShape check: ratios <= 4+eps (usually ~1); rounds grow "
              "linearly in k (Theorem 2's O(k loglog n)).\nE4k: the kernel "
              "shrinks sparse communities and the kernelized sweep reports "
              "the identical weight.\n");
  return finish(argc, argv, rep);
}
