// Serving-tier throughput (DESIGN.md "Cut-query serving tier"): what one
// CutServer sustains on this box. Five measurements per graph size:
//
//   serve_build        — CutServer construction (kernel merge + Gusfield's
//                        n-1 max-flows + snapshot indexing), ns per build.
//   serve_query        — single-shot query(): the O(tree path) hot path.
//                        extra.queries_per_sec is the headline serving
//                        number.
//   serve_query_batch  — query_batch() on the pool (--threads, 0 = hardware
//                        concurrency), at two sizes: the full pair list,
//                        which fans out over several blocks, and a 96-pair
//                        batch (cutbench serve-mixed's size), which is one
//                        block served inline on the caller. Answers are
//                        bit-identical to sequential; only wall time moves.
//   serve_rebuild      — update_graph(): full rebuild + atomic swap, the
//                        cost of freshness while readers keep answering.
//
// Queries/sec numbers are wall-clock on one box (BENCHMARKS.md caveats) and
// ride in `extra` so the ns/op trajectory stays comparable across benches.
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "serve/cut_server.h"
#include "support/rng.h"

using namespace ampccut;
using namespace ampccut::bench;

namespace {

std::vector<serve::QueryPair> make_pairs(VertexId n, std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::QueryPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto s = static_cast<VertexId>(rng.next_below(n));
    const auto t = static_cast<VertexId>(rng.next_below(n));
    if (s != t) pairs.push_back({s, t});
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = mode_of(argc, argv);
  const std::uint32_t threads = threads_of(argc, argv);
  const TimingOptions topt = timing_for(mode);
  BenchReporter rep("serve_queries");

  ThreadPool pool(threads);

  std::vector<VertexId> sizes;
  if (mode == Mode::kSmoke) {
    sizes = {96};
  } else if (mode == Mode::kFull) {
    sizes = {256, 512, 1024};
  } else {
    sizes = {128, 256};
  }
  const std::size_t num_pairs = mode == Mode::kSmoke ? 1024 : 4096;
  // One block of query_batch_on: timed as kSmallBatchReps back-to-back
  // batches per rep so a rep is long enough for the clock.
  constexpr std::size_t kSmallBatch = 96;
  constexpr std::size_t kSmallBatchReps = 64;

  std::printf("Serving tier — queries/sec off one Gomory–Hu snapshot "
              "(threads=%zu)\n\n", pool.num_threads());
  TablePrinter table({"n", "m", "build_ms", "query_qps", "batch_qps",
                      "batch96_qps", "rebuild_ms"});

  for (const VertexId n : sizes) {
    const WGraph g = gen_random_connected(n, 4 * static_cast<std::size_t>(n),
                                          1000 + n);
    const auto pairs = make_pairs(n, num_pairs, 77 + n);
    const std::vector<serve::QueryPair> small_batch(
        pairs.begin(), pairs.begin() + std::ptrdiff_t{kSmallBatch});

    // serve_build: construction through to the published snapshot.
    serve::CutServerOptions build_opt;
    build_opt.pool = &pool;
    build_opt.kernel = kernel::enabled_defaults();
    const Timed built = run_timed(1, topt, [&] {
      serve::CutServer one_shot(g, build_opt);
      (void)one_shot.snapshot();
    });
    {
      BenchResult r;
      r.name = "serve_build";
      r.group = "exact";
      r.params["n"] = n;
      r.params["m"] = static_cast<std::int64_t>(g.m());
      r.ns_per_op = built.ns_per_op;
      r.iterations = built.iterations;
      rep.add(std::move(r));
    }

    // A long-lived server for the query-path measurements.
    serve::CutServer server(g, build_opt);

    const Timed plain = run_timed(pairs.size(), topt, [&] {
      Weight sink = 0;
      for (const auto& p : pairs) sink ^= server.query(p.s, p.t);
      if (sink == static_cast<Weight>(-2)) std::printf("impossible\n");
    });
    const Timed batch = run_timed(pairs.size(), topt, [&] {
      const auto answers = server.query_batch(pairs);
      if (answers.size() != pairs.size()) std::printf("impossible\n");
    });
    const Timed small = run_timed(kSmallBatch * kSmallBatchReps, topt, [&] {
      for (std::size_t i = 0; i < kSmallBatchReps; ++i) {
        const auto answers = server.query_batch(small_batch);
        if (answers.size() != kSmallBatch) std::printf("impossible\n");
      }
    });
    const Timed rebuild = run_timed(1, topt, [&] { server.update_graph(g); });

    const double query_qps = 1e9 / plain.ns_per_op;
    const double batch_qps = 1e9 / batch.ns_per_op;
    const double small_qps = 1e9 / small.ns_per_op;
    table.add_row({fmt_u(n), fmt_u(g.m()), fmt(built.ns_per_op / 1e6),
                   fmt(query_qps, 0), fmt(batch_qps, 0), fmt(small_qps, 0),
                   fmt(rebuild.ns_per_op / 1e6)});

    const auto add_query_result = [&](const char* name, std::size_t count,
                                      const Timed& t, double qps) {
      BenchResult r;
      r.name = name;
      r.group = "exact";
      r.params["n"] = n;
      r.params["m"] = static_cast<std::int64_t>(g.m());
      r.params["pairs"] = static_cast<std::int64_t>(count);
      r.ns_per_op = t.ns_per_op;
      r.iterations = t.iterations;
      r.extra["queries_per_sec"] = qps;
      return r;
    };
    rep.add(add_query_result("serve_query", pairs.size(), plain, query_qps));
    const auto add_batch_result = [&](std::size_t count, const Timed& t,
                                      double qps) {
      BenchResult r = add_query_result("serve_query_batch", count, t, qps);
      // Extra, not params: the pool width is the recording machine's core
      // count, and must not change the row's identity across machines.
      r.extra["threads"] = static_cast<double>(pool.num_threads());
      rep.add(std::move(r));
    };
    add_batch_result(pairs.size(), batch, batch_qps);
    add_batch_result(kSmallBatch, small, small_qps);
    {
      BenchResult r;
      r.name = "serve_rebuild";
      r.group = "exact";
      r.params["n"] = n;
      r.params["m"] = static_cast<std::int64_t>(g.m());
      r.ns_per_op = rebuild.ns_per_op;
      r.iterations = rebuild.iterations;
      rep.add(std::move(r));
    }
  }
  table.print();

  return finish(argc, argv, rep);
}
