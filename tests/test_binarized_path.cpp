// Brute-force validation of the binarized-path closed forms: every arithmetic
// shortcut is checked against an explicit tree walk for all path lengths up
// to a few hundred.
#include <gtest/gtest.h>

#include <vector>

#include "tree/binarized_path.h"

namespace ampccut {
namespace {

namespace bp = binpath;

// Explicit reference model of the heap-shaped tree.
struct RefTree {
  std::uint64_t leaves;
  explicit RefTree(std::uint64_t l) : leaves(l) {}

  [[nodiscard]] bool leaf(bp::NodeId x) const { return x >= leaves; }

  // Pre-order leaf list by explicit traversal.
  [[nodiscard]] std::vector<bp::NodeId> preorder_leaves() const {
    std::vector<bp::NodeId> out;
    std::vector<bp::NodeId> stack{1};
    while (!stack.empty()) {
      const bp::NodeId x = stack.back();
      stack.pop_back();
      if (leaf(x)) {
        out.push_back(x);
        continue;
      }
      stack.push_back(2 * x + 1);
      stack.push_back(2 * x);
    }
    return out;
  }

  // Label by the definitional climb (Algorithm 2 line 14): the highest
  // ancestor u' such that the leaf is the leftmost leaf-descendant of u''s
  // right child; otherwise the leaf itself.
  [[nodiscard]] std::uint32_t label_by_definition(bp::NodeId leaf_node) const {
    bp::NodeId best = leaf_node;
    for (bp::NodeId anc = leaf_node / 2; anc >= 1; anc /= 2) {
      bp::NodeId lm = 2 * anc + 1;  // right child
      while (!leaf(lm)) lm = 2 * lm;
      if (lm == leaf_node) best = anc;  // higher ancestors overwrite
      if (anc == 1) break;
    }
    return bp::depth(best);
  }
};

TEST(BinarizedPath, StructureBasics) {
  EXPECT_EQ(bp::num_nodes(1), 1u);
  EXPECT_EQ(bp::num_nodes(4), 7u);
  EXPECT_EQ(bp::depth(1), 1u);
  EXPECT_EQ(bp::depth(2), 2u);
  EXPECT_EQ(bp::depth(7), 3u);
}

TEST(BinarizedPath, LeafIndexMatchesPreorderTraversal) {
  for (std::uint64_t L = 1; L <= 300; ++L) {
    const RefTree ref(L);
    const auto leaves = ref.preorder_leaves();
    ASSERT_EQ(leaves.size(), L);
    for (std::uint64_t j = 0; j < L; ++j) {
      EXPECT_EQ(bp::leaf_index(L, j), leaves[j]) << "L=" << L << " j=" << j;
      EXPECT_EQ(bp::leaf_position(L, leaves[j]), j);
    }
  }
}

TEST(BinarizedPath, HeightIsLogarithmic) {
  for (std::uint64_t L = 1; L <= 4096; L = L * 2 + 1) {
    std::uint32_t max_leaf_depth = 0;
    for (std::uint64_t j = 0; j < L; ++j) {
      max_leaf_depth =
          std::max(max_leaf_depth, bp::depth(bp::leaf_index(L, j)));
    }
    EXPECT_EQ(max_leaf_depth, bp::height(L));
    EXPECT_LE(max_leaf_depth, floor_log2(2 * L - 1) + 1);
  }
}

TEST(BinarizedPath, SubtreeLeafClosedFormsMatchDescendWalk) {
  // Every node of every path length up to 4096: the bit-width closed form
  // against the literal descend-left walk.
  for (std::uint64_t L = 1; L <= 4096; ++L) {
    for (bp::NodeId x = 1; x <= bp::num_nodes(L); ++x) {
      bp::NodeId left = x;
      while (!bp::is_leaf(L, left)) left = bp::left_child(left);
      if (bp::leftmost_leaf(L, x) != left) {
        ADD_FAILURE() << "L=" << L << " x=" << x << ": leftmost "
                      << bp::leftmost_leaf(L, x) << " vs " << left;
        return;
      }
    }
  }
}

TEST(BinarizedPath, LabelMatchesDefinitionalClimb) {
  for (std::uint64_t L = 1; L <= 300; ++L) {
    const RefTree ref(L);
    for (std::uint64_t j = 0; j < L; ++j) {
      const bp::NodeId leaf = bp::leaf_index(L, j);
      EXPECT_EQ(bp::leaf_label(L, leaf), ref.label_by_definition(leaf))
          << "L=" << L << " j=" << j;
    }
  }
}

TEST(BinarizedPath, LabelsFormValidDecompositionOfAPath) {
  // Definition 1 specialization on a path: for each level i, contiguous runs
  // of positions with label >= i contain at most one label-i position.
  for (std::uint64_t L = 1; L <= 200; ++L) {
    std::vector<std::uint32_t> lab(L);
    std::uint32_t h = 0;
    for (std::uint64_t j = 0; j < L; ++j) {
      lab[j] = bp::label_at(L, j);
      h = std::max(h, lab[j]);
    }
    for (std::uint32_t i = 1; i <= h; ++i) {
      int in_run = 0;
      for (std::uint64_t j = 0; j <= L; ++j) {
        if (j < L && lab[j] >= i) {
          in_run += (lab[j] == i);
          ASSERT_LE(in_run, 1) << "L=" << L << " level=" << i;
        } else {
          in_run = 0;
        }
      }
    }
  }
}

TEST(BinarizedPath, NearestSmallerMatchesBruteForce) {
  for (std::uint64_t L :
       {1u, 2u, 3u, 7u, 16u, 33u, 63u, 64u, 65u, 75u, 128u, 200u}) {
    std::vector<std::uint32_t> lab(L);
    std::uint32_t h = 0;
    for (std::uint64_t j = 0; j < L; ++j) {
      lab[j] = bp::label_at(L, j);
      h = std::max(h, lab[j]);
    }
    for (std::uint64_t j = 0; j < L; ++j) {
      for (std::uint32_t bound = 1; bound <= h + 1; ++bound) {
        std::uint64_t want_l = bp::kNoPosition;
        for (std::uint64_t t = 0; t < j; ++t)
          if (lab[t] < bound) want_l = t;
        std::uint64_t want_r = bp::kNoPosition;
        for (std::uint64_t t = L; t-- > j + 1;)
          if (lab[t] < bound) want_r = t;
        EXPECT_EQ(bp::nearest_smaller_left(L, j, bound), want_l)
            << "L=" << L << " j=" << j << " bound=" << bound;
        EXPECT_EQ(bp::nearest_smaller_right(L, j, bound), want_r)
            << "L=" << L << " j=" << j << " bound=" << bound;
      }
    }
  }
}

TEST(BinarizedPath, MinLabelInRangeMatchesBruteForce) {
  // The minimum over every range is attained exactly once, at got.pos.
  for (std::uint64_t L :
       {1u, 2u, 5u, 9u, 21u, 50u, 90u, 127u, 128u, 129u, 200u}) {
    std::vector<std::uint32_t> lab(L);
    for (std::uint64_t j = 0; j < L; ++j) lab[j] = bp::label_at(L, j);
    for (std::uint64_t lo = 0; lo < L; ++lo) {
      for (std::uint64_t hi = lo; hi < L; ++hi) {
        std::uint32_t want = ~0u;
        std::uint64_t want_pos = bp::kNoPosition;
        std::uint64_t count = 0;
        for (std::uint64_t t = lo; t <= hi; ++t) {
          if (lab[t] < want) {
            want = lab[t];
            want_pos = t;
            count = 0;
          }
          count += lab[t] == want ? 1 : 0;
        }
        const auto got = bp::min_label_in_range(L, lo, hi);
        ASSERT_EQ(got.label, want) << "L=" << L << " [" << lo << ", " << hi;
        ASSERT_EQ(got.pos, want_pos) << "L=" << L << " [" << lo << ", " << hi;
        ASSERT_EQ(count, 1u) << "L=" << L << " [" << lo << ", " << hi;
      }
    }
  }
}

}  // namespace
}  // namespace ampccut
