#include "ampc_algo/singleton_ampc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ampc_algo/list_ranking.h"
#include "ampc_algo/low_depth_ampc.h"
#include "ampc_algo/msf.h"
#include "ampc_algo/prefix_min.h"
#include "ampc_algo/tree_ops.h"
#include "support/check.h"
#include "tree/binarized_path.h"

namespace ampccut::ampc {

namespace {

namespace bp = binpath;

// Path-max over MST contraction times: HLD + sparse tables stored in dense
// DHT tables (build cost charged per Theorem 4 [5]; queries are measured
// adaptive reads, O(log n) of them per query).
class AmpcHldRmq {
 public:
  AmpcHldRmq(Runtime& rt, const AmpcRootedTree& tree,
              const AmpcDecomposition& d)
      : n_(tree.n) {
    rt.charge_rounds("hld_rmq.build[cited Thm 4]",
                     static_cast<std::uint64_t>(
                         std::ceil(1.0 / std::max(0.1, rt.config().eps))));
    // Global positions: paths laid out contiguously, head first.
    std::vector<std::uint32_t> gpos(n_);
    {
      std::vector<std::uint32_t> offset_of_head(n_, 0);
      std::uint32_t off = 0;
      for (VertexId v = 0; v < n_; ++v) {
        if (d.head[v] == v) {
          offset_of_head[v] = off;
          off += d.len[v];
        }
      }
      for (VertexId v = 0; v < n_; ++v) {
        gpos[v] = offset_of_head[d.head[v]] + d.pos[v];
      }
    }
    std::vector<TimeStep> base(n_, 0);
    for (VertexId v = 0; v < n_; ++v) base[gpos[v]] = tree.parent_time[v];

    t_head_ = rt.lease_dense<std::uint64_t>("pm.head", n_);
    t_parent_ = rt.lease_dense<std::uint64_t>("pm.par", n_);
    t_depth_ = rt.lease_dense<std::uint64_t>("pm.dep", n_);
    t_ptime_ = rt.lease_dense<std::uint64_t>("pm.pt", n_);
    t_gpos_ = rt.lease_dense<std::uint64_t>("pm.gpos", n_);
    for (VertexId v = 0; v < n_; ++v) {
      t_head_->seed(v, d.head[v]);
      t_parent_->seed(v, tree.parent[v] == kInvalidVertex
                             ? kNoNext
                             : tree.parent[v]);
      t_depth_->seed(v, tree.depth[v]);
      t_ptime_->seed(v, tree.parent_time[v]);
      t_gpos_->seed(v, gpos[v]);
    }
    // All sparse levels live in ONE dense table (level k at
    // [level_off_[k], ...)): same stored words, same counted reads, but one
    // table registration instead of log n per tracker call — table churn
    // dominated the small-instance (k-cut component) regime.
    const std::uint32_t levels = n_ >= 2 ? floor_log2(n_) + 1 : 1;
    level_off_.assign(levels + 1, 0);
    for (std::uint32_t k = 0; k < levels; ++k) {
      const std::uint32_t len = (1u << k) <= n_ ? n_ - (1u << k) + 1 : 0;
      level_off_[k + 1] = level_off_[k] + len;
    }
    sparse_ = rt.lease_dense<std::uint64_t>("pm.sparse", level_off_[levels]);
    std::vector<TimeStep> cur = base;
    for (std::uint32_t k = 0; k < levels; ++k) {
      const std::uint32_t span = 1u << k;
      if (span > n_) break;
      if (k > 0) {
        std::vector<TimeStep> nxt(n_ - span + 1);
        for (std::uint32_t i = 0; i + span <= n_; ++i) {
          nxt[i] = std::max(cur[i], cur[i + span / 2]);
        }
        cur = std::move(nxt);
      }
      for (std::uint32_t i = 0; i < cur.size(); ++i) {
        sparse_->seed(level_off_[k] + i, cur[i]);
      }
    }
  }

  // The hottest measured read path of the whole AMPC pipeline (one query per
  // (vertex, level) pair with a leader, plus ldr_time's boundary candidates).
  // Reads go through raw() with a local counter that is flushed to the
  // caller's machine context once per query — the counted word totals are
  // exactly what per-access get(ctx, i) would have produced (DESIGN.md
  // "Counted reads").
  TimeStep query(MachineContext* ctx, VertexId u, VertexId v) const {
    if (u == v) return 0;
    std::uint64_t reads = 0;
    const auto rd = [&reads](const DenseTable<std::uint64_t>& t,
                             std::uint64_t i) {
      ++reads;  // words_per_v() == 1 for uint64 values
      return t.raw(i);
    };
    TimeStep best = 0;
    std::uint64_t hu = rd(*t_head_, u);
    std::uint64_t hv = rd(*t_head_, v);
    while (hu != hv) {
      // Climb the side whose head is deeper.
      if (rd(*t_depth_, hu) < rd(*t_depth_, hv)) {
        std::swap(u, v);
        std::swap(hu, hv);
      }
      best = std::max(best, range_max(rd(*t_gpos_, hu), rd(*t_gpos_, u), reads));
      best = std::max(best, static_cast<TimeStep>(rd(*t_ptime_, hu)));
      u = static_cast<VertexId>(rd(*t_parent_, hu));
      hu = rd(*t_head_, u);
    }
    if (u != v) {
      const bool u_higher = rd(*t_depth_, u) < rd(*t_depth_, v);
      const VertexId hi = u_higher ? u : v;
      const VertexId lo = u_higher ? v : u;
      best = std::max(best,
                      range_max(rd(*t_gpos_, hi) + 1, rd(*t_gpos_, lo), reads));
    }
    if (ctx != nullptr) ctx->count_read(reads);
    return best;
  }

 private:
  TimeStep range_max(std::uint64_t lo, std::uint64_t hi,
                     std::uint64_t& reads) const {
    REPRO_DCHECK(lo <= hi);
    const auto len = static_cast<std::uint32_t>(hi - lo + 1);
    const std::uint32_t k = floor_log2(len);
    reads += 2;
    const std::uint64_t off = level_off_[k];
    return static_cast<TimeStep>(std::max(
        sparse_->raw(off + lo), sparse_->raw(off + hi + 1 - (1ull << k))));
  }

  VertexId n_;
  TableLease<DenseTable<std::uint64_t>> t_head_, t_parent_, t_depth_,
      t_ptime_, t_gpos_;
  TableLease<DenseTable<std::uint64_t>> sparse_;  // levels concatenated
  std::vector<std::uint32_t> level_off_;
};

// Outcome of the arithmetic component walk for (x, level): the component's
// top path, its interval, and the unique label-`level` leader if one exists.
struct ClimbResult {
  VertexId leader = kInvalidVertex;
  VertexId top = kInvalidVertex;        // some vertex on the top path
  std::uint64_t a = bp::kNoPosition;    // nearest smaller position left
  std::uint64_t b = bp::kNoPosition;    // nearest smaller position right
  VertexId attach = kInvalidVertex;     // low-label attach above (a==none)
};

}  // namespace

SingletonCutResult ampc_min_singleton_cut(Runtime& rt, const WGraph& g,
                                          const ContractionOrder& order,
                                          const AmpcSingletonOptions& opt,
                                          std::uint64_t* intervals_out) {
  REPRO_CHECK(g.n >= 2);
  REPRO_CHECK(order.time.size() == g.edges.size());
  const VertexId n = g.n;

  // 1. MSF (the only edges whose contraction changes topology).
  const std::vector<EdgeId> msf = opt.use_boruvka_msf
                                      ? ampc_msf_boruvka(rt, g, order)
                                      : ampc_msf_cited(rt, g, order);
  REPRO_CHECK_MSG(msf.size() + 1 == n,
                  "AMPC tracker requires a connected graph");
  std::vector<WEdge> tree_edges;
  std::vector<TimeStep> tree_times;
  TimeStep t_full = 0;
  for (const EdgeId e : msf) {
    tree_edges.push_back(g.edges[e]);
    tree_times.push_back(order.time[e]);
    t_full = std::max(t_full, order.time[e]);
  }

  // 2. Root + decompose.
  const AmpcRootedTree tree = ampc_root_tree(rt, n, tree_edges, tree_times, 0);
  const AmpcDecomposition d = ampc_low_depth_decomposition(rt, tree);
  const std::uint32_t h = d.height;

  // 3. Path-max structure.
  const AmpcHldRmq pm(rt, tree, d);

  // Geometry tables for the walks.
  auto t_label = rt.lease_dense<std::uint64_t>("sc.label", n);
  auto t_head = rt.lease_dense<std::uint64_t>("sc.head", n);
  auto t_pos = rt.lease_dense<std::uint64_t>("sc.pos", n);
  auto t_len = rt.lease_dense<std::uint64_t>("sc.len", n);
  auto t_base = rt.lease_dense<std::uint64_t>("sc.base", n);
  auto t_parent = rt.lease_dense<std::uint64_t>("sc.parent", n);
  // Vertex at a global (path, position) slot — heads own contiguous ranges.
  auto t_vertex_at = rt.lease_dense<std::uint64_t>("sc.vat", n);
  auto t_path_off = rt.lease_dense<std::uint64_t>("sc.poff", n, 0);
  {
    std::uint64_t off = 0;
    std::vector<std::uint64_t> offset_of_head(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      if (d.head[v] == v) {
        offset_of_head[v] = off;
        t_path_off->seed(v, off);
        off += d.len[v];
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      t_label->seed(v, d.label[v]);
      t_head->seed(v, d.head[v]);
      t_pos->seed(v, d.pos[v]);
      t_len->seed(v, d.len[v]);
      t_base->seed(v, d.base_depth[v]);
      t_parent->seed(v, tree.parent[v] == kInvalidVertex ? kNoNext
                                                        : tree.parent[v]);
      t_vertex_at->seed(offset_of_head[d.head[v]] + d.pos[v], v);
    }
  }

  // The arithmetic component walk (proof of Lemma 10): from x at level i,
  // hop path-by-path toward the component's top path. Labels on a path are
  // base_depth + binlabel - 1, so "global label < i" is a pure binarized-
  // path query with bound i - base_depth + 1.
  auto climb = [&](MachineContext& ctx, VertexId x, std::uint32_t i) {
    ClimbResult r;
    VertexId cur = x;
    for (;;) {
      const std::uint64_t hd = t_head->get(ctx, cur);
      const std::uint64_t L = t_len->get(ctx, cur);
      const std::uint64_t j = t_pos->get(ctx, cur);
      const std::uint64_t base = t_base->get(ctx, cur);
      std::uint64_t a = bp::kNoPosition, b = bp::kNoPosition;
      if (i > base) {
        const auto bound = static_cast<std::uint32_t>(i - base + 1);
        a = bp::nearest_smaller_left(L, j, bound);
        b = bp::nearest_smaller_right(L, j, bound);
      }
      if (a == bp::kNoPosition) {
        const std::uint64_t attach = t_parent->get(ctx, hd);
        if (attach != kNoNext &&
            t_label->get(ctx, attach) >= i) {  // component extends upward
          cur = static_cast<VertexId>(attach);
          continue;
        }
        r.attach = attach == kNoNext ? kInvalidVertex
                                     : static_cast<VertexId>(attach);
      }
      r.top = cur;
      r.a = a;
      r.b = b;
      const std::uint64_t lo = (a == bp::kNoPosition) ? 0 : a + 1;
      const std::uint64_t hi = (b == bp::kNoPosition) ? L - 1 : b - 1;
      const auto m = bp::min_label_in_range(L, lo, hi);
      if (base + m.label - 1 == i) {
        const std::uint64_t poff = t_path_off->get(ctx, hd);
        r.leader = static_cast<VertexId>(t_vertex_at->get(ctx, poff + m.pos));
      }
      return r;
    }
  };
  auto vertex_on_top_path = [&](MachineContext& ctx, VertexId top,
                                std::uint64_t position) {
    const std::uint64_t poff = t_path_off->get(ctx, t_head->get(ctx, top));
    return static_cast<VertexId>(t_vertex_at->get(ctx, poff + position));
  };

  // 4. Leader and join time of every (vertex, level) pair, levels in
  // parallel (Lemma 9's O(log^2 n) memory blowup). Index = v * h + (i - 1);
  // the word packs (join << 32) | leader, join = pathmax(leader, v) being
  // the time v's bag joins the leader's. Both halves are 32-bit and
  // leader < n, so kNoNext (all ones) still means "no leader".
  //
  // The items of one vertex are consecutive, so each machine walks its
  // chunk per vertex (per "owner"; an owner can straddle two machines) and
  // reads the owner's label once. In the model every item reads label[v],
  // and items above it exit there: that dead tail is one bulk count of the
  // same words (DESIGN.md "Counted reads").
  const std::uint64_t per =
      std::max<std::uint64_t>(1, rt.config().machine_memory_words);
  const std::uint64_t leader_items = static_cast<std::uint64_t>(n) * h;
  auto t_leader = rt.lease_dense<std::uint64_t>("sc.leader", leader_items,
                                                kNoNext);
  rt.round("singleton.leaders", rt.config().num_machines(leader_items),
           [&](MachineContext& ctx) {
    const std::uint64_t begin = ctx.machine_id() * per;
    const std::uint64_t end = std::min(leader_items, begin + per);
    auto v = static_cast<VertexId>(begin / h);
    for (std::uint64_t item = begin; item < end; ++v) {
      const std::uint64_t owner = static_cast<std::uint64_t>(v) * h;
      const std::uint64_t owner_end = std::min(end, owner + h);
      const std::uint64_t label = t_label->get(ctx, v);
      ctx.count_read(owner_end - item - 1);  // the other items' label reads
      // Levels 1..label are alive; the items above exit at the label read.
      for (const std::uint64_t live_end = std::min(owner_end, owner + label);
           item < live_end; ++item) {
        const auto i = static_cast<std::uint32_t>(item - owner) + 1;
        const ClimbResult r = climb(ctx, v, i);
        if (r.leader == kInvalidVertex) continue;
        const TimeStep join = pm.query(&ctx, r.leader, v);
        t_leader->put(item,
                      (static_cast<std::uint64_t>(join) << 32) | r.leader);
      }
      item = owner_end;
    }
  });
  const auto leader_of = [](std::uint64_t word) {
    return static_cast<VertexId>(word & 0xffffffffu);
  };
  const auto join_of = [](std::uint64_t word) {
    return static_cast<TimeStep>(word >> 32);
  };

  // 5. ldr_time per leader (Lemma 11): at most two boundary candidates — up
  // through the interval's left end (or the attach vertex), down through its
  // right end. No boundary => the component is the whole tree; cap at
  // t_full - 1 (the complete bag is not a cut).
  auto t_ldr = rt.lease_dense<std::uint64_t>("sc.ldr", n, 0);
  rt.round_over_items("singleton.ldr_time", n,
                      [&](MachineContext& ctx, std::uint64_t v) {
    const auto i = static_cast<std::uint32_t>(t_label->get(ctx, v));
    const ClimbResult r = climb(ctx, static_cast<VertexId>(v), i);
    REPRO_CHECK_MSG(r.leader == static_cast<VertexId>(v),
                    "leader must resolve to itself at its own level");
    TimeStep first_absorb = std::numeric_limits<TimeStep>::max();
    if (r.a != bp::kNoPosition) {
      first_absorb = std::min(
          first_absorb, pm.query(&ctx, static_cast<VertexId>(v),
                                 vertex_on_top_path(ctx, r.top, r.a)));
    } else if (r.attach != kInvalidVertex) {
      first_absorb = std::min(
          first_absorb, pm.query(&ctx, static_cast<VertexId>(v), r.attach));
    }
    if (r.b != bp::kNoPosition) {
      first_absorb = std::min(
          first_absorb, pm.query(&ctx, static_cast<VertexId>(v),
                                 vertex_on_top_path(ctx, r.top, r.b)));
    }
    if (first_absorb == std::numeric_limits<TimeStep>::max()) {
      t_ldr->put(v, t_full - 1);
    } else {
      REPRO_CHECK(first_absorb >= 1);
      t_ldr->put(v, first_absorb - 1);
    }
  });

  // Deltas enter the int64 coverage sums of step 8 clamped at one more than
  // the graph's finite weight total. A bag's coverage then reaches the clamp
  // exactly when its boundary holds a kInfiniteWeight edge, and step 8 maps
  // such a minimum back to kInfiniteWeight. No finite weight reaches the
  // clamp, so finite inputs see the same deltas.
  Weight finite_total = 0;
  std::uint64_t infinite_edges = 0;
  for (const WEdge& e : g.edges) {
    if (e.w == kInfiniteWeight) {
      ++infinite_edges;
    } else {
      finite_total = sat_add(finite_total, e.w);
    }
  }
  constexpr auto kMaxDelta =
      static_cast<Weight>(std::numeric_limits<std::int64_t>::max());
  const Weight clamp = std::min(sat_add(finite_total, 1), kMaxDelta);
  REPRO_CHECK_MSG(
      static_cast<unsigned __int128>(clamp) * (infinite_edges + 1) <=
          kMaxDelta,
      "interval coverage would overflow int64");

  // 6. Edge time intervals (Lemmas 12/13) over (edge, level) pairs. Every
  // join time comes packed with its leader from step 4: no path-max query.
  // An interval [lo, hi] of weight w leaves the round as the coverage
  // events step 7 groups: (leader, lo, +w), and (leader, hi + 1, -w) when
  // hi + 1 <= ldr (a close beyond ldr cannot affect [0, ldr]). A machine
  // appends them to the log of the round participant running it; no round
  // is ever replayed (ampc/runtime.h), so every event lands exactly once.
  // Which log holds an event depends on the thread schedule, but step 7's
  // grouping output does not: same-(leader, t) deltas are summed.
  struct Event {
    VertexId leader;
    TimeStep t;
    std::int64_t delta;
  };
  struct alignas(64) EventLog {  // own cache line: participants append at once
    std::vector<Event> events;
    std::uint64_t intervals = 0;
  };
  std::vector<EventLog> logs(rt.participants());
  const std::uint64_t items = static_cast<std::uint64_t>(g.m()) * h;
  rt.round("singleton.intervals", ceil_div(items, per),
           [&](MachineContext& ctx) {
    const std::uint64_t lo_item = ctx.machine_id() * per;
    const std::uint64_t hi_item = std::min(items, lo_item + per);
    EventLog& log = logs[ctx.slot()];
    // Per edge ("owner") as in step 4: both endpoint labels are read once,
    // and the levels above both of them — where the model's item reads the
    // two labels and exits — are one bulk count.
    auto e = static_cast<EdgeId>(lo_item / h);
    for (std::uint64_t item = lo_item; item < hi_item; ++e) {
      const std::uint64_t owner = static_cast<std::uint64_t>(e) * h;
      const std::uint64_t owner_end = std::min(hi_item, owner + h);
      const VertexId x = g.edges[e].u;
      const VertexId y = g.edges[e].v;
      const auto delta =
          static_cast<std::int64_t>(std::min(g.edges[e].w, clamp));
      const std::uint64_t label_x = t_label->get(ctx, x);
      const std::uint64_t label_y = t_label->get(ctx, y);
      ctx.count_read(2 * (owner_end - item - 1));
      const std::uint64_t leaders_x = static_cast<std::uint64_t>(x) * h;
      const std::uint64_t leaders_y = static_cast<std::uint64_t>(y) * h;
      for (const std::uint64_t live_end =
               std::min(owner_end, owner + std::max(label_x, label_y));
           item < live_end; ++item) {
        const std::uint64_t level = item - owner;  // i - 1
        const std::uint64_t lx =
            label_x > level ? t_leader->get(ctx, leaders_x + level) : kNoNext;
        const std::uint64_t ly =
            label_y > level ? t_leader->get(ctx, leaders_y + level) : kNoNext;
        if (lx != kNoNext && leader_of(lx) == leader_of(ly)) {
          // Same component & leader (Case 3b): crosses between joining times.
          const VertexId leader = leader_of(lx);
          const TimeStep jx = join_of(lx);
          const TimeStep jy = join_of(ly);
          if (jx == jy) continue;  // joined simultaneously, never crosses
          const auto ldr = static_cast<TimeStep>(t_ldr->get(ctx, leader));
          const TimeStep a = std::min(jx, jy);
          const TimeStep b = std::min<TimeStep>(std::max(jx, jy) - 1, ldr);
          if (a <= b) {
            log.events.push_back({leader, a, delta});
            if (b < ldr) log.events.push_back({leader, b + 1, -delta});
            ++log.intervals;
            ctx.count_write(2);
          }
        } else {
          // Cases 2/3a: each alive side contributes until its leader falls
          // (hi = ldr, so no close event).
          for (const std::uint64_t lv : {lx, ly}) {
            if (lv == kNoNext) continue;  // dead side, or no leader
            const VertexId leader = leader_of(lv);
            const TimeStep j = join_of(lv);
            const auto ldr = static_cast<TimeStep>(t_ldr->get(ctx, leader));
            if (j <= ldr) {
              log.events.push_back({leader, j, delta});
              ++log.intervals;
              ctx.count_write(2);
            }
          }
        }
      }
      item = owner_end;
    }
  });
  std::size_t num_events = 0;
  std::uint64_t num_intervals = 0;
  for (const EventLog& log : logs) {
    num_events += log.events.size();
    num_intervals += log.intervals;
  }
  if (intervals_out != nullptr) *intervals_out = num_intervals;

  // 7. Group by leader and compress same-timestamp deltas (the S'' sequence
  // of Lemma 14) — a standard O(1/eps) AMPC sort, charged.
  rt.charge_rounds("singleton.group_sort[cited]", 2);
  // Host-side it is two counting passes, by t and then stably by leader, so
  // the events end up ordered by (leader, t). The first pass releases each
  // log as it drains it, and the second releases its input: no more than
  // two copies of the events are ever alive. Tie order within a
  // (leader, t) pair is irrelevant: the compression below sums those
  // deltas.
  std::vector<Event> events;
  {
    std::vector<Event> by_time(num_events);
    std::vector<std::uint32_t> count(
        std::max<std::size_t>(t_full + 2, n) + 1, 0);
    for (const EventLog& log : logs) {
      for (const Event& e : log.events) ++count[e.t + 1];
    }
    for (std::size_t t = 0; t + 2 < count.size(); ++t) count[t + 1] += count[t];
    for (EventLog& log : logs) {
      for (const Event& e : log.events) by_time[count[e.t]++] = e;
      log.events = {};
    }
    events.resize(num_events);
    std::fill(count.begin(), count.end(), 0);
    for (const Event& e : by_time) ++count[e.leader + 1];
    for (VertexId v = 0; v < n; ++v) count[v + 1] += count[v];
    for (const Event& e : by_time) events[count[e.leader]++] = e;
  }
  std::vector<std::int64_t> deltas;
  std::vector<TimeStep> times_at;
  std::vector<VertexId> seg_leader;
  std::vector<std::uint64_t> offsets{0};
  for (std::size_t i = 0; i < events.size();) {
    const VertexId leader = events[i].leader;
    if (seg_leader.empty() || seg_leader.back() != leader) {
      if (!seg_leader.empty()) offsets.push_back(deltas.size());
      seg_leader.push_back(leader);
    }
    std::size_t j = i;
    std::int64_t sum = 0;
    while (j < events.size() && events[j].leader == leader &&
           events[j].t == events[i].t) {
      sum += events[j].delta;
      ++j;
    }
    deltas.push_back(sum);
    times_at.push_back(events[i].t);
    i = j;
  }
  offsets.push_back(deltas.size());
  events = {};  // compressed into deltas; step 8 must not hold both

  // 8. Minimum coverage per leader via the segmented Theorem 5 machinery.
  const auto mins = segmented_min_prefix_sum(rt, deltas, offsets);
  SingletonCutResult best;
  for (std::size_t s = 0; s < seg_leader.size(); ++s) {
    const std::int64_t mp = mins[s].min_prefix;
    REPRO_CHECK_MSG(mp >= 0, "negative interval coverage");
    const Weight w =
        static_cast<Weight>(mp) >= clamp ? kInfiniteWeight
                                         : static_cast<Weight>(mp);
    if (w < best.weight) {
      best.weight = w;
      best.rep = seg_leader[s];
      best.time = times_at[offsets[s] + mins[s].argmin];
    }
  }
  // A bag of infinite boundary is no witness: with every bag infinite the
  // result is kInfiniteWeight with no rep, as from the oracle.
  REPRO_CHECK_MSG(!seg_leader.empty(),
                  "no proper bag found on a connected graph");
  return best;
}

}  // namespace ampccut::ampc
