// SmallestSingletonCut (Algorithm 3 / Theorem 3) on the AMPC runtime.
//
// Round structure (measured unless marked cited):
//   1. MSF of the contraction order            — cited O(1/eps) [4], or the
//      measured Boruvka variant (ablation);
//   2. root/orient + low-depth decomposition   — Euler tours, list rankings,
//      label arithmetic (Lemmas 3-7), measured;
//   3. HLD + path-max RMQ build                — cited O(1/eps) (Theorem 4);
//      queries are measured reads (O(log n) per query, as Theorem 4 states);
//   4. leader and join time of every (vertex, level) pair — ONE
//      adaptive-walk round navigating components arithmetically through the
//      binarized-path geometry (this is where Definition 1 + Lemma 10's
//      "positions are functions of path length and position" pay off;
//      levels processed in parallel with the O(log^2 n) memory blowup of
//      Lemma 9), plus one path-max query per resolved pair for the time the
//      vertex joins its leader's bag, stored in the same table word;
//   5. ldr_time per leader (Lemma 11)          — one round, <= 2 boundary
//      candidates each;
//   6. edge time intervals (Lemmas 12/13)      — one round over
//      (edge, level) pairs, reading both endpoints' leader and join time
//      from step 4 (no path-max query);
//   7. group intervals by leader               — cited sort;
//   8. minimum coverage per leader (Lemma 14)  — segmented min-prefix-sum
//      (Theorem 5), measured.
//
// Exactness contract: the same weight as mincut/singleton.h's oracle on every
// graph, and a witness that reconstructs to a bag of that weight — enforced
// by tests. The witness itself may differ from the oracle's when several
// bags attain the minimum: here it is the first minimizing leader in vertex
// order at its earliest minimizing time.
//
// Cost summary: steps 2, 4, 5, 6 and 8 are measured; steps 1, 3 and 7 are
// charged (`msf[cited Behnezhad et al. 2020]`, `hld_rmq.build[cited Thm 4]`,
// `singleton.group_sort[cited]`). DHT traffic is dominated by the
// (vertex, level) and (edge, level) rounds: O((n+m) log n) word writes in
// total with the O(log^2 n) interval blowup bounded by Lemma 9 (E3 reports
// peak_table_words against that budget); leader-resolution walks and
// path-max queries are adaptive reads of O(log n) words each — one query
// per (vertex, level) pair in step 4 and at most two per leader in step 5,
// none in step 6 — keeping per-machine traffic within O(n^eps) up to the
// violations A1c measures.
#pragma once

#include "ampc/runtime.h"
#include "graph/graph.h"
#include "mincut/singleton.h"

namespace ampccut::ampc {

struct AmpcSingletonOptions {
  bool use_boruvka_msf = false;  // measured MSF instead of cited
};

// Requires a connected graph with n >= 2 (the min-cut driver guards
// disconnected inputs). Rounds/reads/memory accumulate into rt.metrics().
// `intervals`, when set, receives the number of (leader, edge) time
// intervals step 6 materialized — Lemma 9's memory blowup, which E3 reports.
SingletonCutResult ampc_min_singleton_cut(Runtime& rt, const WGraph& g,
                                          const ContractionOrder& order,
                                          const AmpcSingletonOptions& opt = {},
                                          std::uint64_t* intervals = nullptr);

}  // namespace ampccut::ampc
