// Property/differential suite for the deterministic parallel sort/partition
// primitives (DESIGN.md "Parallel sort & counting primitives").
//
// Contract under test: every primitive is bit-identical to its sequential
// counterpart at EVERY thread count. The suite is parameterized over pool
// widths {1, 2, 3, 5, hardware} and runs each primitive over adversarial key
// distributions (uniform, all-equal, pre-sorted, reverse, duplicate-heavy,
// sawtooth) at sizes straddling psort::kSeqCutoff, plus a randomized fuzz
// loop with arbitrary lengths. Items carry their original index so the
// equality checks also pin stable tie preservation, not just key order.
//
// The PSort* suites run under ThreadSanitizer in CI (the `tsan` preset)
// alongside the runtime/recursion/pool concurrency suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "support/psort.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ampccut {
namespace {

struct Item {
  std::uint32_t key;
  std::uint32_t id;  // original position: equality pins stability
  bool operator==(const Item& o) const { return key == o.key && id == o.id; }
};

const char* const kShapes[] = {"uniform",   "all_equal", "sorted",
                               "reverse",   "dup_heavy", "sawtooth"};

std::vector<Item> make_items(const char* shape, std::size_t n, Rng& rng) {
  std::vector<Item> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t key = 0;
    if (shape == std::string_view("uniform")) {
      key = static_cast<std::uint32_t>(rng.next_u64());
    } else if (shape == std::string_view("all_equal")) {
      key = 42;
    } else if (shape == std::string_view("sorted")) {
      key = static_cast<std::uint32_t>(i);
    } else if (shape == std::string_view("reverse")) {
      key = static_cast<std::uint32_t>(n - i);
    } else if (shape == std::string_view("dup_heavy")) {
      key = static_cast<std::uint32_t>(rng.next_below(4));
    } else {  // sawtooth
      key = static_cast<std::uint32_t>(i % 97);
    }
    v[i] = {key, static_cast<std::uint32_t>(i)};
  }
  return v;
}

// Sizes straddling the sequential cutoff; the two above exercise one and
// multiple merge rounds, and the odd size exercises uneven split points.
const std::size_t kSizes[] = {0, 1, 7, 1000, psort::kSeqCutoff,
                              20000, 50001};

// Pool widths. 0 means hardware concurrency (ThreadPool's convention).
class PSortP : public ::testing::TestWithParam<std::size_t> {
 protected:
  ThreadPool pool_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Threads, PSortP,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 0),
                         [](const auto& info) {
                           // Built with += (not operator+) to dodge GCC 12's
                           // -Wrestrict false positive on small-string concat.
                           if (info.param == 0) return std::string("hw");
                           std::string name = "t";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST_P(PSortP, StableSortBitIdenticalToStdStableSort) {
  // repro-lint: allow(comparator-tiebreak) the single-key comparator is the
  // point: items carry their index so equality pins stable tie preservation
  const auto by_key = [](const Item& a, const Item& b) {
    return a.key < b.key;
  };
  for (const char* shape : kShapes) {
    for (const std::size_t n : kSizes) {
      Rng rng(std::hash<std::string_view>{}(std::string_view(shape)) ^ n);
      std::vector<Item> expect = make_items(shape, n, rng);
      std::vector<Item> got = expect;
      // repro-lint: allow(raw-sort) std::stable_sort IS the differential
      // reference the psort contract is stated against
      std::stable_sort(expect.begin(), expect.end(), by_key);
      psort::stable_sort_keys(&pool_, got, by_key);
      ASSERT_EQ(got, expect) << shape << " n=" << n
                             << " threads=" << pool_.num_threads();
      ASSERT_TRUE(std::is_sorted(got.begin(), got.end(), by_key));
    }
  }
}

TEST_P(PSortP, RadixRankBitIdenticalToSequential) {
  for (const char* shape : kShapes) {
    for (const std::size_t n : kSizes) {
      for (const std::size_t num_keys : {std::size_t{1}, std::size_t{4},
                                         std::size_t{257},
                                         std::max<std::size_t>(1, n)}) {
        Rng rng(std::hash<std::string_view>{}(std::string_view(shape)) ^ (n * 31) ^ num_keys);
        std::vector<Item> in = make_items(shape, n, rng);
        const auto key_of = [num_keys](const Item& it) {
          return static_cast<std::size_t>(it.key) % num_keys;
        };
        std::vector<Item> expect(n), got(n);
        std::vector<std::size_t> expect_off, got_off;
        psort::radix_rank(nullptr, in.data(), expect.data(), n, num_keys,
                          key_of, &expect_off);
        psort::radix_rank(&pool_, in.data(), got.data(), n, num_keys, key_of,
                          &got_off);
        ASSERT_EQ(got, expect) << shape << " n=" << n << " keys=" << num_keys
                               << " threads=" << pool_.num_threads();
        ASSERT_EQ(got_off, expect_off);
        // The sequential reference must itself be the stable sort by key.
        std::vector<Item> ref = in;
        // repro-lint: allow(raw-sort) differential reference for radix_rank
        std::stable_sort(ref.begin(), ref.end(),
                         [&](const Item& a, const Item& b) {
                           return key_of(a) < key_of(b);
                         });
        ASSERT_EQ(expect, ref);
        // Group offsets really delimit the key groups.
        ASSERT_EQ(expect_off.size(), num_keys + 1);
        ASSERT_EQ(expect_off.front(), 0u);
        ASSERT_EQ(expect_off.back(), n);
        for (std::size_t k = 0; k < num_keys; ++k) {
          for (std::size_t i = expect_off[k]; i < expect_off[k + 1]; ++i) {
            ASSERT_EQ(key_of(got[i]), k);
          }
        }
      }
    }
  }
}

TEST_P(PSortP, FuzzRandomLengthsAndKeySpaces) {
  Rng rng(0xf00dULL ^ GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = rng.next_below(40000);
    const std::size_t num_keys = 1 + rng.next_below(2 * n + 10);
    std::vector<Item> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = {static_cast<std::uint32_t>(rng.next_below(num_keys)),
               static_cast<std::uint32_t>(i)};
    }
    // repro-lint: allow(comparator-tiebreak) fuzz items carry their index;
    // the single-key comparator exercises stable tie preservation
    const auto by_key = [](const Item& a, const Item& b) {
      return a.key < b.key;
    };
    // Sort.
    std::vector<Item> expect = in;
    std::vector<Item> got = in;
    // repro-lint: allow(raw-sort) differential reference for the fuzz trials
    std::stable_sort(expect.begin(), expect.end(), by_key);
    psort::stable_sort_keys(&pool_, got, by_key);
    ASSERT_EQ(got, expect) << "trial " << trial;
    // Rank: must agree with the sort (a counting sort IS a stable sort).
    std::vector<Item> ranked(n);
    psort::radix_rank(&pool_, in.data(), ranked.data(), n, num_keys,
                      [](const Item& it) {
                        return static_cast<std::size_t>(it.key);
                      });
    ASSERT_EQ(ranked, expect) << "trial " << trial;
  }
}

// The split-point plan is a pure function of the input size — never of the
// pool — so every thread count walks the same block structure.
TEST(PSortPlan, SplitsArePureAndBalanced) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095}, std::size_t{8192},
        std::size_t{50001}, std::size_t{1} << 20}) {
    const std::size_t blocks = psort::plan_blocks(n);
    ASSERT_EQ(blocks, psort::plan_blocks(n));  // pure
    ASSERT_GE(blocks, 1u);
    ASSERT_EQ(blocks & (blocks - 1), 0u) << "power of two";
    std::size_t prev = 0;
    for (std::size_t b = 1; b <= blocks; ++b) {
      const std::size_t at = psort::split_point(n, blocks, b);
      ASSERT_GE(at, prev);
      ASSERT_LE(at - prev, n / blocks + 1);  // balanced
      prev = at;
    }
    ASSERT_EQ(prev, n);
    for (const std::size_t keys : {std::size_t{1}, std::size_t{100}, n + 1}) {
      const std::size_t rb = psort::plan_radix_blocks(n, keys);
      ASSERT_GE(rb, 1u);
      ASSERT_LE(rb, psort::plan_blocks(n));
    }
  }
}

}  // namespace
}  // namespace ampccut
