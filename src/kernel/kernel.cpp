#include "kernel/kernel.h"

#include <algorithm>
#include <utility>

#include "graph/union_find.h"
#include "support/check.h"
#include "support/psort.h"
#include "support/threadpool.h"

namespace ampccut::kernel {

namespace {

// Undirected key of a normalized (u <= v) edge. A free-function projection:
// the stable sort below supplies the tie-break, and equal-key edges merge
// into one anyway.
inline std::uint64_t edge_key(const WEdge& e) {
  return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
}

// Half-edge used to build the merged CSR the certificate pass runs on.
struct HalfArc {
  VertexId v = 0;   // owning endpoint
  VertexId to = 0;  // other endpoint
  Weight w = 0;
};

inline std::uint64_t arc_key(const HalfArc& a) {
  return (static_cast<std::uint64_t>(a.v) << 32) | a.to;
}

// Runs the rule passes over one CONNECTED graph with n >= 2. The control
// loop is sequential; every sort goes through psort on the caller's pool, so
// the result is bit-identical at every thread count.
class Reducer {
 public:
  Reducer(const WGraph& g, const KernelOptions& opt, ThreadPool* pool)
      : opt_(opt), pool_(pool) {
    cur_.n = g.n;
    cur_.edges = g.edges;
    members_.resize(g.n);
    for (VertexId v = 0; v < g.n; ++v) members_[v] = {v};
    stats_.original_n = g.n;
    stats_.original_m = g.edges.size();
    map_.original_n = g.n;
  }

  KernelResult run() {
    for (std::uint32_t pass = 0; pass < opt_.max_passes; ++pass) {
      bool changed = false;
      if (opt_.merge_parallel_edges) changed |= merge_parallel();
      if (opt_.remove_low_degree) changed |= peel_low_degree();
      if (cur_.n >= 2 && opt_.contract_heavy_edges) {
        changed |= contract_certified();
      }
      if (!changed || cur_.n < 2) break;
      ++stats_.passes;  // counts passes that made progress
    }
    // Leave a clean (parallel-edge-free) kernel even when the loop exited
    // mid-pass via the pass cap or full reduction.
    if (opt_.merge_parallel_edges) merge_parallel();

    stats_.kernel_n = cur_.n;
    stats_.kernel_m = cur_.edges.size();
    map_.kernel_of.assign(map_.original_n, kInvalidVertex);
    for (VertexId kv = 0; kv < cur_.n; ++kv) {
      for (const VertexId orig : members_[kv]) map_.kernel_of[orig] = kv;
    }
    KernelResult out;
    out.kernel = std::move(cur_);
    out.map = std::move(map_);
    out.stats = stats_;
    return out;
  }

 private:
  // Records ({side}, rest) as a candidate cut; `side` lists original ids and
  // must be copied before any member splice. Strict improvement keeps the
  // first-found candidate on ties — deterministic.
  void record_candidate(Weight w, const std::vector<VertexId>& side) {
    if (w < map_.candidate_weight) {
      map_.candidate_weight = w;
      map_.candidate_members = side;
    }
  }

  // Splices the members of a removed vertex into its attach target.
  void attach(VertexId removed, VertexId host) {
    auto& src = members_[removed];
    auto& dst = members_[host];
    dst.insert(dst.end(), src.begin(), src.end());
    src.clear();
    src.shrink_to_fit();
  }

  // Sums the weights of identical endpoint pairs. Also canonicalizes the
  // edge list (u <= v, sorted by (u, v)) as a side effect.
  bool merge_parallel() {
    auto& edges = cur_.edges;
    if (edges.size() < 2) return false;
    for (auto& e : edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    psort::stable_sort_keys(pool_, edges, [](const WEdge& a, const WEdge& b) {
      return edge_key(a) < edge_key(b);
    });
    std::size_t out = 0;
    for (std::size_t i = 0; i < edges.size();) {
      WEdge merged = edges[i];
      std::size_t j = i + 1;
      while (j < edges.size() && edges[j].u == merged.u &&
             edges[j].v == merged.v) {
        merged.w = sat_add(merged.w, edges[j].w);
        ++j;
      }
      edges[out++] = merged;
      i = j;
    }
    const bool any = out != edges.size();
    stats_.merged_parallel += edges.size() - out;
    edges.resize(out);
    return any;
  }

  // Cascading degree-1 removal and degree-2 path contraction. Sequential
  // worklist in a fixed order; each removal records its candidate cut before
  // splicing the vertex's members into the attach target.
  bool peel_low_degree() {
    const VertexId n = cur_.n;
    if (n == 0) return false;
    std::vector<std::vector<EdgeId>> inc(n);
    for (EdgeId e = 0; e < cur_.edges.size(); ++e) {
      inc[cur_.edges[e].u].push_back(e);
      inc[cur_.edges[e].v].push_back(e);
    }
    std::vector<std::uint8_t> edge_alive(cur_.edges.size(), 1);
    std::vector<std::uint8_t> vert_alive(n, 1);
    std::vector<std::uint8_t> queued(n, 0);
    std::vector<std::uint32_t> deg(n, 0);
    std::vector<VertexId> work;
    for (VertexId v = 0; v < n; ++v) {
      deg[v] = static_cast<std::uint32_t>(inc[v].size());
      if (deg[v] <= 2) {
        work.push_back(v);
        queued[v] = 1;
      }
    }
    const auto push_if_low = [&](VertexId v) {
      if (vert_alive[v] != 0 && deg[v] <= 2 && queued[v] == 0) {
        work.push_back(v);
        queued[v] = 1;
      }
    };

    VertexId alive_n = n;
    bool changed = false;
    while (!work.empty()) {
      const VertexId v = work.back();
      work.pop_back();
      queued[v] = 0;
      if (vert_alive[v] == 0 || alive_n <= 1) continue;
      auto& iv = inc[v];
      iv.erase(std::remove_if(
                   iv.begin(), iv.end(),
                   [&edge_alive](EdgeId e) { return edge_alive[e] == 0; }),
               iv.end());
      REPRO_DCHECK(iv.size() == deg[v]);
      if (deg[v] > 2) continue;
      // A connected current graph has a degree-0 vertex only when it is the
      // last one standing, which the alive_n guard already handled.
      REPRO_CHECK_MSG(deg[v] >= 1, "degree-0 vertex in connected reduction");

      if (deg[v] == 1) {
        const EdgeId e = iv[0];
        const WEdge ed = cur_.edges[e];
        const VertexId u = ed.u == v ? ed.v : ed.u;
        record_candidate(ed.w, members_[v]);
        attach(v, u);
        edge_alive[e] = 0;
        vert_alive[v] = 0;
        --alive_n;
        --deg[u];
        ++stats_.removed_degree_one;
        changed = true;
        push_if_low(u);
        continue;
      }

      // deg[v] == 2: contract the path a - v - b to an edge (a, b) of the
      // smaller weight; v's originals ride with the heavier-edge neighbor so
      // the lifted weight of any later cut is exact.
      const EdgeId e1 = iv[0];
      const EdgeId e2 = iv[1];
      const WEdge ed1 = cur_.edges[e1];
      const WEdge ed2 = cur_.edges[e2];
      const VertexId a = ed1.u == v ? ed1.v : ed1.u;
      const VertexId b = ed2.u == v ? ed2.v : ed2.u;
      record_candidate(sat_add(ed1.w, ed2.w), members_[v]);
      edge_alive[e1] = 0;
      edge_alive[e2] = 0;
      vert_alive[v] = 0;
      --alive_n;
      ++stats_.removed_degree_two;
      changed = true;
      if (a == b) {
        // Two parallel edges: a plain removal, no replacement edge.
        attach(v, a);
        deg[a] -= 2;
        push_if_low(a);
      } else {
        attach(v, ed1.w >= ed2.w ? a : b);
        const auto ne = static_cast<EdgeId>(cur_.edges.size());
        cur_.edges.push_back({a, b, std::min(ed1.w, ed2.w)});
        edge_alive.push_back(1);
        inc[a].push_back(ne);
        inc[b].push_back(ne);
        // deg[a] and deg[b] are net unchanged: each swapped one incident
        // edge for the replacement.
      }
    }
    if (!changed) return false;

    // Compact: relabel alive vertices in ascending id order.
    std::vector<VertexId> newid(n, kInvalidVertex);
    VertexId next = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (vert_alive[v] != 0) newid[v] = next++;
    }
    std::vector<std::vector<VertexId>> new_members(next);
    for (VertexId v = 0; v < n; ++v) {
      if (vert_alive[v] != 0) new_members[newid[v]] = std::move(members_[v]);
    }
    members_ = std::move(new_members);
    std::vector<WEdge> new_edges;
    new_edges.reserve(cur_.edges.size());
    for (EdgeId e = 0; e < cur_.edges.size(); ++e) {
      if (edge_alive[e] == 0) continue;
      const WEdge& ed = cur_.edges[e];
      new_edges.push_back({newid[ed.u], newid[ed.v], ed.w});
    }
    cur_.edges = std::move(new_edges);
    cur_.n = next;
    return true;
  }

  // One batch of certified heavy-edge contractions. All conditions are
  // evaluated against the pass-start snapshot and contracted pairs form a
  // matching (one touch per vertex per pass), which makes the batch as safe
  // as a sequence of single certified contractions (DESIGN.md).
  bool contract_certified() {
    const VertexId n = cur_.n;
    const std::size_t m = cur_.edges.size();
    if (n < 2 || m == 0) return false;

    // Merged CSR sorted by (vertex, neighbor): arcs with equal endpoints sum
    // their weights, so pair weights are true totals even when the peel pass
    // left parallel edges behind.
    std::vector<HalfArc> arcs;
    arcs.reserve(2 * m);
    for (const WEdge& e : cur_.edges) {
      arcs.push_back({e.u, e.v, e.w});
      arcs.push_back({e.v, e.u, e.w});
    }
    psort::stable_sort_keys(pool_, arcs,
                            [](const HalfArc& x, const HalfArc& y) {
                              return arc_key(x) < arc_key(y);
                            });
    std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
    std::vector<VertexId> nbr;
    std::vector<Weight> nw;
    nbr.reserve(arcs.size());
    nw.reserve(arcs.size());
    {
      std::size_t i = 0;
      for (VertexId v = 0; v < n; ++v) {
        start[v] = nbr.size();
        while (i < arcs.size() && arcs[i].v == v) {
          const VertexId t = arcs[i].to;
          Weight sum = 0;
          while (i < arcs.size() && arcs[i].v == v && arcs[i].to == t) {
            sum = sat_add(sum, arcs[i].w);
            ++i;
          }
          nbr.push_back(t);
          nw.push_back(sum);
        }
      }
      start[n] = nbr.size();
    }
    std::vector<Weight> wdeg(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      for (std::size_t i = start[v]; i < start[v + 1]; ++i) {
        wdeg[v] = sat_add(wdeg[v], nw[i]);
      }
    }

    // Seed the upper bound with the minimum weighted degree (smallest id on
    // ties) — a genuine singleton cut, so recording it is always safe.
    VertexId vmin = 0;
    for (VertexId v = 1; v < n; ++v) {
      if (wdeg[v] < wdeg[vmin]) vmin = v;
    }
    record_candidate(wdeg[vmin], members_[vmin]);
    const Weight lambda = map_.candidate_weight;

    UnionFind uf(n);
    std::vector<std::uint8_t> touched(n, 0);
    std::uint64_t fired = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (std::size_t i = start[u]; i < start[u + 1] && touched[u] == 0;
           ++i) {
        const VertexId v = nbr[i];
        if (v < u || touched[v] != 0) continue;
        const Weight wuv = nw[i];
        // Rule 1: no cut separating u, v can beat the recorded candidate.
        // Rule 2: the singleton side of u (or v) is no worse merged across
        // (W >= wdeg - W avoids the 2W overflow).
        bool fire = wuv >= lambda || wuv >= wdeg[u] - wuv ||
                    wuv >= wdeg[v] - wuv;
        if (!fire) {
          // Rule 3: W_uv + sum_t min(W_ut, W_vt) edge-disjoint u-v paths —
          // a cut separating u, v must pay for all of them.
          Weight cert = wuv;
          std::size_t iu = start[u];
          std::size_t jv = start[v];
          while (iu < start[u + 1] && jv < start[v + 1] && cert < lambda) {
            const VertexId tu = nbr[iu];
            const VertexId tv = nbr[jv];
            if (tu == v) {
              ++iu;
            } else if (tv == u) {
              ++jv;
            } else if (tu < tv) {
              ++iu;
            } else if (tv < tu) {
              ++jv;
            } else {
              cert = sat_add(cert, std::min(nw[iu], nw[jv]));
              ++iu;
              ++jv;
            }
          }
          fire = cert >= lambda;
        }
        if (fire) {
          uf.unite(u, v);
          touched[u] = 1;
          touched[v] = 1;
          ++fired;
        }
      }
    }
    if (fired == 0) return false;
    stats_.contracted_certified += fired;

    // Rebuild: relabel union-find roots in ascending id order, splice member
    // lists into their roots, drop edges that became self-loops.
    std::vector<VertexId> newid(n, kInvalidVertex);
    VertexId next = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (uf.find(v) == v) newid[v] = next++;
    }
    std::vector<std::vector<VertexId>> new_members(next);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId r = newid[uf.find(v)];
      auto& dst = new_members[r];
      if (dst.empty()) {
        dst = std::move(members_[v]);
      } else {
        dst.insert(dst.end(), members_[v].begin(), members_[v].end());
      }
    }
    members_ = std::move(new_members);
    std::vector<WEdge> new_edges;
    new_edges.reserve(m);
    for (const WEdge& e : cur_.edges) {
      const VertexId ru = newid[uf.find(e.u)];
      const VertexId rv = newid[uf.find(e.v)];
      if (ru == rv) continue;
      new_edges.push_back({ru, rv, e.w});
    }
    cur_.edges = std::move(new_edges);
    cur_.n = next;
    return true;
  }

  KernelOptions opt_;
  ThreadPool* pool_;
  WGraph cur_;
  std::vector<std::vector<VertexId>> members_;  // per current vertex
  KernelMap map_;
  KernelStats stats_;
};

}  // namespace

MinCutResult KernelMap::candidate_cut() const {
  REPRO_CHECK_MSG(candidate_weight != kInfiniteWeight,
                  "no candidate cut recorded");
  REPRO_DCHECK(!candidate_members.empty() &&
               candidate_members.size() < original_n);
  MinCutResult r;
  r.weight = candidate_weight;
  r.side.assign(original_n, 0);
  for (const VertexId v : candidate_members) {
    REPRO_DCHECK(v < original_n);
    r.side[v] = 1;
  }
  return r;
}

MinCutResult KernelMap::unpack(const MinCutResult& kernel_cut) const {
  if (kernel_cut.weight <= candidate_weight) {
    REPRO_CHECK_MSG(!kernel_cut.side.empty(),
                    "kernel cut has no side to lift");
    MinCutResult r;
    r.weight = kernel_cut.weight;
    r.side.assign(original_n, 0);
    for (VertexId v = 0; v < original_n; ++v) {
      REPRO_DCHECK(kernel_of[v] != kInvalidVertex);
      r.side[v] = kernel_cut.side[kernel_of[v]];
    }
    return r;
  }
  return candidate_cut();
}

MinCutResult KernelResult::resolved_cut() const {
  REPRO_CHECK_MSG(solved(), "kernel is not solved; call unpack instead");
  if (map.candidate_weight == kInfiniteWeight) return {};  // original n < 2
  return map.candidate_cut();
}

KernelResult kernelize(const WGraph& g, const KernelOptions& opt,
                       ThreadPool* pool) {
  KernelResult out;
  out.stats.original_n = g.n;
  out.stats.original_m = g.edges.size();
  out.map.original_n = g.n;
  if (g.n < 2) {
    out.kernel = g;
    out.map.kernel_of.assign(g.n, 0);
    out.stats.kernel_n = g.n;
    out.stats.kernel_m = g.edges.size();
    return out;
  }
  // Connected-component splitting: a disconnected input has an exact zero
  // cut along any component — the kernel is empty and the candidate is the
  // answer. (component_labels uses the smallest vertex id per component, so
  // `label == v` identifies exactly one vertex per component.)
  const auto comp = component_labels(g);
  VertexId num_components = 0;
  for (VertexId v = 0; v < g.n; ++v) num_components += (comp[v] == v) ? 1 : 0;
  out.stats.components = num_components;
  if (num_components > 1) {
    out.map.candidate_weight = 0;
    for (VertexId v = 0; v < g.n; ++v) {
      if (comp[v] == comp[0]) out.map.candidate_members.push_back(v);
    }
    out.map.kernel_of.assign(g.n, kInvalidVertex);
    out.kernel.n = 0;
    out.stats.kernel_n = 0;
    out.stats.kernel_m = 0;
    return out;
  }
  Reducer reducer(g, opt, pool);
  KernelResult res = reducer.run();
  res.stats.components = 1;
  return res;
}

}  // namespace ampccut::kernel
