// Concurrency contract of the serving tier (DESIGN.md "Cut-query serving
// tier"), written to run under TSan (the tsan preset and CI job filter on
// the "Serve" suite-name prefix): N reader threads hammer queries while a
// writer swaps snapshots, and every answer must be attributable to a
// published epoch — a pinned snapshot answers for ITS graph forever, a
// batch is internally consistent with exactly one epoch. Torn state of any kind is a failure; so is an answer that
// matches no published epoch's truth table.
//
// The two alternating graphs are built so that EVERY query pair has a
// different answer on epoch-odd vs epoch-even — any cross-epoch mixup or
// torn read lands on a value the checker rejects.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "flow/dinic.h"
#include "graph/generators.h"
#include "serve/cut_server.h"
#include "support/threadpool.h"

namespace ampccut {
namespace {

using serve::CutServer;
using serve::QueryPair;

constexpr VertexId kN = 12;

// Epoch-odd graph: a unit-weight path. Every s-t answer is 1.
WGraph odd_graph() {
  return gen_path(kN);
}

// Epoch-even graph: the same path with every edge at weight 5. Every s-t
// answer is 5 — disjoint from the odd graph's on every pair.
WGraph even_graph() {
  WGraph g;
  g.n = kN;
  for (VertexId v = 0; v + 1 < kN; ++v) g.add_edge(v, v + 1, 5);
  return g;
}

std::vector<QueryPair> all_pairs() {
  std::vector<QueryPair> pairs;
  for (VertexId s = 0; s < kN; ++s) {
    for (VertexId t = s + 1; t < kN; ++t) pairs.push_back({s, t});
  }
  return pairs;
}

// Ground truth per parity, computed by direct max-flow up front.
struct Truth {
  std::vector<Weight> odd;
  std::vector<Weight> even;
};

Truth truth_tables(const std::vector<QueryPair>& pairs) {
  Truth t;
  const WGraph go = odd_graph();
  const WGraph ge = even_graph();
  for (const auto& p : pairs) {
    t.odd.push_back(st_min_cut(go, p.s, p.t));
    t.even.push_back(st_min_cut(ge, p.s, p.t));
    EXPECT_NE(t.odd.back(), t.even.back());  // the detector's precondition
  }
  return t;
}

Weight expected_for_epoch(const Truth& t, std::uint64_t epoch,
                          std::size_t pair_index) {
  return (epoch % 2 == 1) ? t.odd[pair_index] : t.even[pair_index];
}

TEST(ServeConcurrency, PinnedSnapshotsAnswerTheirOwnEpochDuringSwaps) {
  const auto pairs = all_pairs();
  const Truth truth = truth_tables(pairs);
  CutServer server(odd_graph());

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> checked{0};
  std::latch started(kReaders);
  std::atomic<int> first_passes{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.count_down();
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = server.snapshot();  // pin once, then read a lot
        const std::uint64_t epoch = snap->epoch();
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          const Weight got = snap->query(pairs[i].s, pairs[i].t);
          if (got != expected_for_epoch(truth, epoch, i)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
        if (first) {
          first = false;
          first_passes.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  // The swaps must interleave with reads, whatever the scheduler does: no
  // swap before every reader has checked one full pass, and none after it
  // until the readers have checked more answers.
  started.wait();
  while (first_passes.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (int swap = 0; swap < 24; ++swap) {
    server.update_graph(swap % 2 == 0 ? even_graph() : odd_graph());
    const std::uint64_t seen = checked.load(std::memory_order_relaxed);
    while (checked.load(std::memory_order_relaxed) == seen) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0U);
  EXPECT_GT(checked.load(), 0U);
  EXPECT_EQ(server.snapshot()->epoch(), 25U);
  EXPECT_EQ(server.stats().rebuilds, 24U);
}

TEST(ServeConcurrency, QueriesMatchSomePublishedEpochDuringSwaps) {
  const auto pairs = all_pairs();
  const Truth truth = truth_tables(pairs);
  CutServer server(odd_graph());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> issued{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);  // stagger the walks
      while (!stop.load(std::memory_order_acquire)) {
        i = (i + 1) % pairs.size();
        const Weight got = server.query(pairs[i].s, pairs[i].t);
        // query() pins internally; the answer must match one of the two
        // truth tables — a torn or cross-epoch read would land elsewhere.
        if (got != truth.odd[i] && got != truth.even[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int swap = 0; swap < 16; ++swap) {
    server.update_graph(swap % 2 == 0 ? even_graph() : odd_graph());
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0U);
  EXPECT_EQ(server.stats().queries, issued.load());
}

TEST(ServeConcurrency, ConcurrentBatchesAreInternallyOneEpoch) {
  const auto pairs = all_pairs();
  const Truth truth = truth_tables(pairs);
  // The pair list repeated past 16 of query_batch_on's blocks (grain at most
  // 1024): that batch fans out over the pool (parallel_for runs a batch of
  // at most 16 iterations inline), while the 66-pair list is one block
  // served inline.
  const std::vector<QueryPair> long_pairs = [&] {
    std::vector<QueryPair> out;
    while (out.size() <= 16 * 1024) {
      out.insert(out.end(), pairs.begin(), pairs.end());
    }
    return out;
  }();
  CutServer server(odd_graph());

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inconsistent{0};
  std::atomic<std::uint64_t> batches{0};
  std::latch started(kReaders);
  std::atomic<int> first_batches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.count_down();
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        for (const auto* batch : {&pairs, &long_pairs}) {
          const auto answers = server.query_batch(*batch);
          // Infer the serving parity from answer 0; every other slot must
          // agree with it. Answers differ across parities on EVERY pair, so
          // a batch mixing epochs cannot sneak through.
          const bool odd = answers[0] == truth.odd[0];
          for (std::size_t i = 0; i < answers.size(); ++i) {
            const std::size_t p = i % pairs.size();
            if (answers[i] != (odd ? truth.odd[p] : truth.even[p])) {
              inconsistent.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
        if (first) {
          first = false;
          first_batches.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  // As above: every reader finishes one batch before the first swap, and
  // each swap waits for another batch, so batches overlap the swaps however
  // late the reader threads get scheduled.
  started.wait();
  while (first_batches.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (int swap = 0; swap < 16; ++swap) {
    server.update_graph(swap % 2 == 0 ? even_graph() : odd_graph());
    const std::uint64_t seen = batches.load(std::memory_order_relaxed);
    while (batches.load(std::memory_order_relaxed) == seen) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(inconsistent.load(), 0U);
  EXPECT_GT(batches.load(), 0U);
}

}  // namespace
}  // namespace ampccut
