#include "ampc_algo/list_ranking.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "support/check.h"
#include "support/rng.h"

namespace ampccut::ampc {

namespace {

// Per-element accumulators live on the stack: the round bodies run once per
// element, and a heap vector per item showed up in profiles.
constexpr std::size_t kMaxColumns = 2;
using Acc = std::array<std::int64_t, kMaxColumns>;

// One contraction level: successor pointers plus k value columns, and the
// mapping of this level's dense ids back to the previous level's ids.
struct Level {
  std::vector<std::uint64_t> next;
  std::vector<std::vector<std::int64_t>> value;  // [column][element]
  std::vector<std::uint64_t> to_prev;
};

// Per-column dense tables bundled for one level (leased, so the column
// storage recycles across contraction levels).
struct ValueTables {
  std::vector<TableLease<DenseTable<std::int64_t>>> cols;

  ValueTables(Runtime& rt, const char* name,
              const std::vector<std::vector<std::int64_t>>& value) {
    for (const auto& col : value) {
      cols.push_back(rt.lease_dense<std::int64_t>(name, col.size()));
      for (std::uint64_t i = 0; i < col.size(); ++i) {
        cols.back()->seed(i, col[i]);
      }
    }
  }
};

}  // namespace

std::vector<std::vector<std::int64_t>> list_rank_multi(
    Runtime& rt, const std::vector<std::uint64_t>& next,
    const std::vector<std::vector<std::int64_t>>& value_columns,
    std::uint64_t seed) {
  const std::uint64_t n0 = next.size();
  const std::size_t k = value_columns.size();
  REPRO_CHECK(k >= 1 && k <= kMaxColumns);
  for (const auto& col : value_columns) REPRO_CHECK(col.size() == n0);
  if (n0 == 0) return std::vector<std::vector<std::int64_t>>(k);
  const std::uint64_t mem = rt.config().machine_memory_words;

  // ---- Contraction phase: sample, walk, build the contracted list. -------
  std::vector<Level> levels;
  levels.push_back({next, value_columns, {}});
  Rng level_rng(seed);
  bool resolved_by_walk = false;

  while (levels.back().next.size() > mem) {
    const Level& cur = levels.back();
    const std::uint64_t n = cur.next.size();
    // Sampling probability ~ 1/sqrt(M): walks stay ~sqrt(M) whp while the
    // list shrinks by a sqrt(M) factor per level.
    const double q = std::min(
        0.5,
        1.0 / std::sqrt(static_cast<double>(std::max<std::uint64_t>(4, mem))));

    auto t_next = rt.lease_dense<std::uint64_t>("lr.next", n);
    ValueTables t_val(rt, "lr.val", cur.value);
    auto t_sampled = rt.lease_dense<std::uint8_t>("lr.sampled", n, 0);
    for (std::uint64_t i = 0; i < n; ++i) t_next->seed(i, cur.next[i]);
    const std::uint64_t lvl_seed = level_rng.next_u64();

    // Round 1: every element flips its sampling coin; tails always sample
    // (the recursion must retain every list's anchor).
    rt.round_over_items("list_rank.sample", n,
                        [&](MachineContext& ctx, std::uint64_t i) {
      const bool tail = t_next->get(ctx, i) == kNoNext;
      const bool coin = Rng(splitmix64(lvl_seed ^ i)).next_bernoulli(q);
      if (tail || coin) t_sampled->put(i, 1);
    });

    // Round 2: sampled elements walk to the next sampled element, summing
    // skipped values per column — the adaptive step MPC cannot do in O(1).
    auto t_succ = rt.lease_dense<std::uint64_t>("lr.succ", n, kNoNext);
    std::vector<TableLease<DenseTable<std::int64_t>>> t_segsum;
    for (std::size_t c = 0; c < k; ++c) {
      t_segsum.push_back(rt.lease_dense<std::int64_t>("lr.segsum", n, 0));
    }
    rt.round_over_items("list_rank.walk", n,
                        [&](MachineContext& ctx, std::uint64_t i) {
      if (!t_sampled->get(ctx, i)) return;
      Acc acc{};
      for (std::size_t c = 0; c < k; ++c) acc[c] = t_val.cols[c]->get(ctx, i);
      std::uint64_t j = t_next->get(ctx, i);
      while (j != kNoNext && !t_sampled->get(ctx, j)) {
        for (std::size_t c = 0; c < k; ++c) {
          acc[c] += t_val.cols[c]->get(ctx, j);
        }
        j = t_next->get(ctx, j);
      }
      t_succ->put(i, j);
      for (std::size_t c = 0; c < k; ++c) t_segsum[c]->put(i, acc[c]);
    });

    // Driver-side compaction of the sampled ids into dense ids. (In the
    // model this is a stable prefix-sum compaction, O(1/eps) rounds; we run
    // the arithmetic directly and charge the published cost.)
    rt.charge_rounds("list_rank.compact[cited]", 1);
    Level nxt;
    std::vector<std::uint64_t> dense(n, kNoNext);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (t_sampled->raw(i)) {
        dense[i] = nxt.to_prev.size();
        nxt.to_prev.push_back(i);
      }
    }
    if (nxt.to_prev.size() > n - n / 10) {
      // Barely any contraction: the input is dominated by tiny chains whose
      // tails were force-sampled. Rank the level directly — every element
      // walks to its tail; walks are short exactly in this regime (a long
      // all-sampled chain has probability q^len).
      Level& cur_level = levels.back();
      std::vector<TableLease<DenseTable<std::int64_t>>> t_rank;
      for (std::size_t c = 0; c < k; ++c) {
        t_rank.push_back(rt.lease_dense<std::int64_t>("lr.walkout", n, 0));
      }
      rt.round_over_items("list_rank.direct_walk", n,
                          [&](MachineContext& ctx, std::uint64_t i) {
        Acc acc{};
        for (std::size_t c = 0; c < k; ++c) acc[c] = t_val.cols[c]->get(ctx, i);
        for (std::uint64_t j = t_next->get(ctx, i); j != kNoNext;
             j = t_next->get(ctx, j)) {
          for (std::size_t c = 0; c < k; ++c) {
            acc[c] += t_val.cols[c]->get(ctx, j);
          }
        }
        for (std::size_t c = 0; c < k; ++c) t_rank[c]->put(i, acc[c]);
      });
      for (std::size_t c = 0; c < k; ++c) {
        for (std::uint64_t i = 0; i < n; ++i) {
          cur_level.value[c][i] = t_rank[c]->raw(i);
        }
      }
      resolved_by_walk = true;
      break;
    }
    nxt.next.resize(nxt.to_prev.size());
    nxt.value.assign(k, std::vector<std::int64_t>(nxt.to_prev.size()));
    for (std::uint64_t d = 0; d < nxt.to_prev.size(); ++d) {
      const std::uint64_t i = nxt.to_prev[d];
      const std::uint64_t s = t_succ->raw(i);
      nxt.next[d] = (s == kNoNext) ? kNoNext : dense[s];
      for (std::size_t c = 0; c < k; ++c) nxt.value[c][d] = t_segsum[c]->raw(i);
    }
    levels.push_back(std::move(nxt));
  }

  // ---- Base case: the whole (contracted) list fits on one machine. -------
  if (!resolved_by_walk) {
    Level& base = levels.back();
    const std::uint64_t n = base.next.size();
    auto t_next = rt.lease_dense<std::uint64_t>("lr.base.next", n);
    ValueTables t_val(rt, "lr.base.val", base.value);
    std::vector<TableLease<DenseTable<std::int64_t>>> t_rank;
    for (std::size_t c = 0; c < k; ++c) {
      t_rank.push_back(rt.lease_dense<std::int64_t>("lr.base.rank", n, 0));
    }
    for (std::uint64_t i = 0; i < n; ++i) t_next->seed(i, base.next[i]);
    rt.round("list_rank.base", 1, [&](MachineContext& ctx) {
      // One machine ranks all chains locally: find heads (elements nobody
      // points to), then suffix-sum each chain back to front.
      std::vector<std::uint64_t> nxt(n);
      std::vector<std::vector<std::int64_t>> val(k,
                                                 std::vector<std::int64_t>(n));
      std::vector<std::uint8_t> has_pred(n, 0);
      std::vector<std::uint64_t> chain;
      for (std::uint64_t i = 0; i < n; ++i) {
        nxt[i] = t_next->get(ctx, i);
        for (std::size_t c = 0; c < k; ++c) {
          val[c][i] = t_val.cols[c]->get(ctx, i);
        }
        if (nxt[i] != kNoNext) has_pred[nxt[i]] = 1;
      }
      for (std::uint64_t h = 0; h < n; ++h) {
        if (has_pred[h]) continue;
        chain.clear();
        for (std::uint64_t j = h; j != kNoNext; j = nxt[j]) chain.push_back(j);
        Acc acc{};
        for (std::size_t idx = chain.size(); idx-- > 0;) {
          for (std::size_t c = 0; c < k; ++c) {
            acc[c] += val[c][chain[idx]];
            t_rank[c]->put(chain[idx], acc[c]);
          }
        }
      }
    });
    for (std::size_t c = 0; c < k; ++c) {
      for (std::uint64_t i = 0; i < n; ++i) {
        base.value[c][i] = t_rank[c]->raw(i);
      }
    }
  }

  // ---- Expansion phase: push ranks back down level by level. -------------
  for (std::size_t li = levels.size() - 1; li-- > 0;) {
    Level& fine = levels[li];
    const Level& coarse = levels[li + 1];
    const std::uint64_t n = fine.next.size();
    constexpr std::int64_t kUnset = std::numeric_limits<std::int64_t>::min();
    // The walks' next and value tables: the model reads them, so they stay
    // leased and seeded (peak_table_words counts them), but the host
    // evaluates the walks from the level's own arrays (below).
    auto t_next = rt.lease_dense<std::uint64_t>("lr.x.next", n);
    ValueTables t_val(rt, "lr.x.val", fine.value);
    auto t_known = rt.lease_dense<std::uint8_t>("lr.x.known", n, 0);
    std::vector<TableLease<DenseTable<std::int64_t>>> t_rank_s, t_rank;
    for (std::size_t c = 0; c < k; ++c) {
      t_rank_s.push_back(rt.lease_dense<std::int64_t>("lr.x.ranks", n, kUnset));
      t_rank.push_back(rt.lease_dense<std::int64_t>("lr.x.rank", n, 0));
    }
    for (std::uint64_t i = 0; i < n; ++i) t_next->seed(i, fine.next[i]);
    for (std::uint64_t d = 0; d < coarse.to_prev.size(); ++d) {
      t_known->seed(coarse.to_prev[d], 1);
      for (std::size_t c = 0; c < k; ++c) {
        t_rank_s[c]->seed(coarse.to_prev[d], coarse.value[c][d]);
      }
    }
    // rank(i) = values i..pred(s) + rank(s) for the next known s. In the
    // model each unknown element walks there itself: it reads known(i),
    // value(i) and next(i), the same k + 2 words at every unknown element
    // on the way, and known(s) plus rank(s) at the end. The walks of one
    // segment (the unknown run before s) overlap, so they are evaluated
    // once per segment here, over the frozen level arrays, and each body
    // counts its own walk's words (DESIGN.md "Counted reads", rule 3).
    std::vector<Acc> walk_rank(n);
    std::vector<std::uint64_t> walk_words(n, 0);  // 0 = not yet evaluated
    {
      std::vector<std::uint64_t> run;
      for (std::uint64_t i = 0; i < n; ++i) {
        if (t_known->raw(i) || walk_words[i] != 0) continue;
        std::uint64_t j = i;
        for (; j != kNoNext && !t_known->raw(j) && walk_words[j] == 0;
             j = fine.next[j]) {
          run.push_back(j);
        }
        Acc acc{};
        std::uint64_t words = 0;
        if (j != kNoNext && t_known->raw(j)) {
          for (std::size_t c = 0; c < k; ++c) acc[c] = t_rank_s[c]->raw(j);
          words = k + 1;
        } else if (j != kNoNext) {
          acc = walk_rank[j];
          words = walk_words[j];
        }
        for (; !run.empty(); run.pop_back()) {
          const std::uint64_t r = run.back();
          for (std::size_t c = 0; c < k; ++c) acc[c] += fine.value[c][r];
          words += k + 2;
          walk_rank[r] = acc;
          walk_words[r] = words;
        }
      }
    }
    rt.round_over_items("list_rank.expand", n,
                        [&](MachineContext& ctx, std::uint64_t i) {
      if (t_known->get(ctx, i)) {
        for (std::size_t c = 0; c < k; ++c) {
          t_rank[c]->put(i, t_rank_s[c]->get(ctx, i));
        }
        return;
      }
      ctx.count_read(walk_words[i] - 1);  // all but the known(i) read above
      for (std::size_t c = 0; c < k; ++c) t_rank[c]->put(i, walk_rank[i][c]);
    });
    for (std::size_t c = 0; c < k; ++c) {
      for (std::uint64_t i = 0; i < n; ++i) {
        fine.value[c][i] = t_rank[c]->raw(i);
      }
    }
  }

  return levels.front().value;
}

std::vector<std::int64_t> list_rank(Runtime& rt,
                                    const std::vector<std::uint64_t>& next,
                                    const std::vector<std::int64_t>& value,
                                    std::uint64_t seed) {
  auto cols = list_rank_multi(rt, next, {value}, seed);
  return std::move(cols[0]);
}

}  // namespace ampccut::ampc
