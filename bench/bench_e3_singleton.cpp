// E3 (Theorem 3): smallest singleton cut in O(1/eps) AMPC rounds with
// O((n+m) log^2 n) total memory — measured rounds, interval counts (the
// memory blowup of Lemma 9), and exactness against the oracle.
#include <cmath>

#include "ampc_algo/singleton_ampc.h"
#include "bench_util.h"
#include "graph/generators.h"

using namespace ampccut;
using namespace ampccut::bench;

int main(int argc, char** argv) {
  const Mode mode = mode_of(argc, argv);
  BenchReporter rep("e3_singleton");
  std::printf("E3 / Theorem 3 — AMPC singleton-cut tracker (random "
              "connected graphs)\n\n");
  TablePrinter t({"n", "m", "rounds(meas+cited)", "intervals",
                  "(n+m)log2^2", "peak_words", "== oracle"});
  struct Case {
    VertexId n;
    std::size_t m;
  };
  std::vector<Case> cases{{512, 2048}, {1024, 4096}, {2048, 8192},
                          {4096, 16384}};
  if (mode == Mode::kSmoke) cases = {{512, 2048}, {1024, 4096}};
  if (mode == Mode::kFull) cases.push_back({8192, 32768});
  // One runtime for the whole sweep: reset_for_subproblem gives each case
  // fresh config/metrics while the table pool persists across cases.
  ampc::Runtime rt(ampc::Config::for_problem(cases[0].n + cases[0].m, 0.5));
  for (const auto& c : cases) {
    const WGraph g = gen_random_connected(c.n, c.m, 17 + c.n);
    const ContractionOrder o = make_contraction_order(g, 3);

    rt.reset_for_subproblem(ampc::Config::for_problem(c.n + c.m, 0.5));
    SingletonCutResult got;
    // The tracker's interval count is the Lemma 9 memory proxy.
    std::uint64_t intervals = 0;
    const double ns = time_once_ns([&] {
      got = ampc::ampc_min_singleton_cut(rt, g, o, {}, &intervals);
    });
    const auto oracle = min_singleton_cut_oracle(g, o);

    const double budget =
        static_cast<double>(c.n + c.m) *
        std::pow(std::log2(static_cast<double>(c.n)), 2);
    const bool exact = got.weight == oracle.weight;
    t.add_row({fmt_u(c.n), fmt_u(c.m),
               fmt_u(rt.metrics().rounds) + "+" +
                   fmt_u(rt.metrics().charged_rounds),
               fmt_u(intervals), fmt(budget, 0),
               fmt_u(rt.metrics().peak_table_words), exact ? "yes" : "NO"});

    BenchResult r;
    r.name = "ampc_singleton_tracker";
    r.params["n"] = c.n;
    r.params["m"] = static_cast<std::int64_t>(c.m);
    r.ns_per_op = ns;
    r.iterations = 1;
    fill_model_metrics(r, rt.metrics());
    r.extra["intervals"] = static_cast<double>(intervals);
    r.extra["interval_budget"] = budget;
    r.extra["matches_oracle"] = exact ? 1.0 : 0.0;
    rep.add(std::move(r));
  }
  t.print();
  std::printf("\nShape check: rounds flat in n (Theorem 3's O(1/eps)); "
              "intervals well under the (n+m) log^2 n budget; the tracker "
              "equals the oracle exactly.\n");
  return finish(argc, argv, rep);
}
