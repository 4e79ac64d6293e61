#include "ampc_algo/prefix_min.h"

#include <algorithm>
#include <limits>

#include "support/check.h"

namespace ampccut::ampc {

namespace {

struct Summary {
  std::int64_t sum = 0;
  std::int64_t min_prefix = std::numeric_limits<std::int64_t>::max();
  std::uint64_t argmin = 0;  // absolute index into the original sequence
};

// Combine left-to-right: the right block's prefixes are offset by the left
// block's total sum. Ties keep the leftmost witness.
Summary combine(const Summary& l, const Summary& r) {
  Summary out;
  out.sum = l.sum + r.sum;
  out.min_prefix = l.min_prefix;
  out.argmin = l.argmin;
  if (r.min_prefix != std::numeric_limits<std::int64_t>::max()) {
    const std::int64_t shifted = l.sum + r.min_prefix;
    if (shifted < out.min_prefix) {
      out.min_prefix = shifted;
      out.argmin = r.argmin;
    }
  }
  return out;
}

}  // namespace

std::vector<MinPrefixResult> segmented_min_prefix_sum(
    Runtime& rt, const std::vector<std::int64_t>& values,
    const std::vector<std::uint64_t>& offsets) {
  REPRO_CHECK(!offsets.empty());
  REPRO_CHECK(offsets.back() == values.size());
  const std::uint64_t num_segs = offsets.size() - 1;
  const std::uint64_t B = std::max<std::uint64_t>(2, rt.config().machine_memory_words);

  // Unit = (segment, block range). Tier 0 units cover raw values; each later
  // tier combines up to B summaries of the same segment. Units of all
  // segments at a tier execute in the same round.
  struct Unit {
    std::uint64_t seg;
    std::uint64_t lo, hi;  // range in the previous tier's array
  };

  // Tier 0: summaries of value blocks.
  std::vector<Summary> cur;    // per-unit summaries after each tier
  std::vector<std::uint64_t> cur_seg;
  {
    std::vector<Unit> units;
    for (std::uint64_t s = 0; s < num_segs; ++s) {
      for (std::uint64_t lo = offsets[s]; lo < offsets[s + 1]; lo += B) {
        units.push_back({s, lo, std::min(offsets[s + 1], lo + B)});
      }
      if (offsets[s] == offsets[s + 1]) {
        units.push_back({s, offsets[s], offsets[s]});  // empty segment marker
      }
    }
    auto t_vals = rt.lease_dense<std::int64_t>("smp.vals", values.size());
    for (std::uint64_t i = 0; i < values.size(); ++i) t_vals->seed(i, values[i]);
    auto t_out = rt.lease_dense<Summary>("smp.t0", units.size());
    rt.round("segmented_min_prefix.leaf", units.size(), [&](MachineContext& ctx) {
      const Unit& u = units[ctx.machine_id()];
      Summary s;
      std::int64_t acc = 0;
      for (std::uint64_t i = u.lo; i < u.hi; ++i) {
        acc += t_vals->get(ctx, i);
        if (acc < s.min_prefix) {
          s.min_prefix = acc;
          s.argmin = i - offsets[u.seg];
        }
      }
      s.sum = acc;
      t_out->put(ctx.machine_id(), s);
    });
    cur.resize(units.size());
    cur_seg.resize(units.size());
    for (std::uint64_t i = 0; i < units.size(); ++i) {
      cur[i] = t_out->raw(i);
      cur_seg[i] = units[i].seg;
    }
  }

  // Combine tiers until one summary per segment remains.
  while (cur.size() > num_segs) {
    // Group consecutive units of the same segment into runs; chunk runs by B.
    std::vector<Unit> units;
    std::uint64_t i = 0;
    while (i < cur.size()) {
      std::uint64_t j = i;
      while (j < cur.size() && cur_seg[j] == cur_seg[i]) ++j;
      for (std::uint64_t lo = i; lo < j; lo += B) {
        units.push_back({cur_seg[i], lo, std::min(j, lo + B)});
      }
      i = j;
    }
    auto t_in = rt.lease_dense<Summary>("smp.in", cur.size());
    for (std::uint64_t k = 0; k < cur.size(); ++k) t_in->seed(k, cur[k]);
    auto t_out = rt.lease_dense<Summary>("smp.out", units.size());
    rt.round("segmented_min_prefix.combine", units.size(),
             [&](MachineContext& ctx) {
               const Unit& u = units[ctx.machine_id()];
               Summary acc;  // empty-identity
               acc.min_prefix = std::numeric_limits<std::int64_t>::max();
               bool first = true;
               for (std::uint64_t k = u.lo; k < u.hi; ++k) {
                 const Summary s = t_in->get(ctx, k);
                 acc = first ? s : combine(acc, s);
                 first = false;
               }
               t_out->put(ctx.machine_id(), acc);
             });
    std::vector<Summary> nxt(units.size());
    std::vector<std::uint64_t> nxt_seg(units.size());
    for (std::uint64_t k = 0; k < units.size(); ++k) {
      nxt[k] = t_out->raw(k);
      nxt_seg[k] = units[k].seg;
    }
    if (nxt.size() == cur.size()) break;  // nothing left to combine
    cur = std::move(nxt);
    cur_seg = std::move(nxt_seg);
  }

  std::vector<MinPrefixResult> out(num_segs,
                                   {std::numeric_limits<std::int64_t>::max(), 0});
  for (std::uint64_t k = 0; k < cur.size(); ++k) {
    out[cur_seg[k]] = {cur[k].min_prefix, cur[k].argmin};
  }
  return out;
}

}  // namespace ampccut::ampc
