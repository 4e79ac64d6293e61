// Closed-form index arithmetic on binarized paths (Definition 5).
//
// A binarized path of a heavy path with L vertices is the heap-shaped
// ("almost complete", Observation 3) binary tree with 2L-1 nodes whose L
// leaves are the path vertices in pre-order = path order (top of the heavy
// path first). Nodes are heap-indexed 1..2L-1 (children of i are 2i, 2i+1),
// which makes every structural question pure arithmetic — this is what lets
// the AMPC algorithm answer decomposition queries locally in O(1) rounds
// (the paper leans on this in the proof of Lemma 10: positions "are functions
// of only the length of the path and the position of v").
//
// Key facts implemented here (each brute-force-tested in tests/tree):
//  * internal nodes are exactly 1..L-1; leaves exactly L..2L-1;
//  * left-to-right (= pre-order) leaf order: the bottom layer first
//    (indices 2^d .. 2^d+r-1 where d = floor(log2(2L-1)), r = 2L - 2^d),
//    then the leaves of the layer above (indices L .. 2^d - 1);
//  * the label rule of Algorithm 2 line 14 — "the highest ancestor u' such
//    that the leaf is the leftmost descendant of u''s right child, else the
//    leaf itself" — is "climb while left child; stop at the first right
//    child": since leaf->u'.right must be an all-left path, the candidate is
//    unique and is the parent of the first right-child ancestor;
//  * so every internal node labels exactly one leaf, the leftmost of its
//    right child, and those leaves run in the in-order of the internal
//    nodes. Range minima and nearest-smaller queries over the labels are
//    therefore bit arithmetic on one root-to-leaf path, O(1) each.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "support/bits.h"
#include "support/check.h"

namespace ampccut::binpath {

using NodeId = std::uint64_t;

inline std::uint64_t num_nodes(std::uint64_t leaves) {
  REPRO_DCHECK(leaves >= 1);
  return 2 * leaves - 1;
}

inline bool is_leaf(std::uint64_t leaves, NodeId x) { return x >= leaves; }

inline NodeId parent(NodeId x) { return x >> 1; }
inline NodeId left_child(NodeId x) { return 2 * x; }
inline NodeId right_child(NodeId x) { return 2 * x + 1; }

// Depth within the binarized path; the root has depth 1.
inline std::uint32_t depth(NodeId x) {
  REPRO_DCHECK(x >= 1);
  return floor_log2(x) + 1;
}

// Max depth of the tree (Observation 3: floor(log2 L) + 1 for the leaf layer
// count; expressed via the last node id).
inline std::uint32_t height(std::uint64_t leaves) {
  return depth(num_nodes(leaves));
}

// Heap index of the pre-order j-th leaf (0-based j).
inline NodeId leaf_index(std::uint64_t leaves, std::uint64_t j) {
  REPRO_DCHECK(j < leaves);
  const std::uint64_t total = num_nodes(leaves);
  const std::uint32_t d = floor_log2(total);
  const std::uint64_t bottom = 2 * leaves - (1ull << d);  // bottom-layer size
  return j < bottom ? (1ull << d) + j : leaves + (j - bottom);
}

// Inverse of leaf_index: pre-order position of a leaf node.
inline std::uint64_t leaf_position(std::uint64_t leaves, NodeId x) {
  REPRO_DCHECK(is_leaf(leaves, x));
  const std::uint64_t total = num_nodes(leaves);
  const std::uint32_t d = floor_log2(total);
  const std::uint64_t bottom = 2 * leaves - (1ull << d);
  return x >= (1ull << d) ? x - (1ull << d) : bottom + (x - leaves);
}

// Leftmost leaf of the subtree rooted at x. Closed form — the descend-left
// walk multiplies by 2 per step, so the step count is the smallest k with
// x·2^k >= L. Every internal node (ids 1..L-1) has both children in the
// almost-complete heap, so the walk never falls off the tree and the closed
// form is exact. It sits on the hot path of the Lemma 10 climbs, so the step
// count comes from bit widths, not from a division (min_doublings).
namespace detail {

// Smallest k with y·2^k >= target, for 1 <= y < target: shifting y to the
// bit width of target leaves it either >= target (k is the width gap) or
// below it (one more doubling); one doubling fewer is a narrower number.
inline std::uint32_t min_doublings(std::uint64_t y, std::uint64_t target) {
  REPRO_DCHECK(y >= 1 && y < target);
  const std::uint32_t k = floor_log2(target) - floor_log2(y);
  return (y << k) >= target ? k : k + 1;
}

}  // namespace detail

inline NodeId leftmost_leaf(std::uint64_t leaves, NodeId x) {
  if (is_leaf(leaves, x)) return x;
  return x << detail::min_doublings(x, leaves);
}

// The label of a leaf, as a depth within this binarized path (the caller
// offsets by the expanded-meta-tree base depth). Implements Algorithm 2
// line 14: climb while the current node is a left child; if a right child is
// reached its parent is u', otherwise (reached the root) u' is the leaf.
// Climbing out of left children strips trailing zero bits, so the climb is
// one countr_zero: the first right-child ancestor is leaf >> countr_zero
// (odd), whose parent has depth floor_log2(leaf) - countr_zero(leaf).
inline std::uint32_t leaf_label(std::uint64_t leaves, NodeId leaf) {
  REPRO_DCHECK(is_leaf(leaves, leaf));
  const int tz = std::countr_zero(leaf);
  const NodeId first_right = leaf >> tz;
  if (first_right == 1) return depth(leaf);  // all-left path to the root
  return floor_log2(leaf) - static_cast<std::uint32_t>(tz);
}

// Label of the pre-order j-th leaf.
inline std::uint32_t label_at(std::uint64_t leaves, std::uint64_t j) {
  return leaf_label(leaves, leaf_index(leaves, j));
}

inline constexpr std::uint64_t kNoPosition = static_cast<std::uint64_t>(-1);

// Pre-order position of the leaf that internal node u labels (with depth(u)):
// the leftmost leaf of its right child. Every leaf but position 0 is labeled
// by exactly one internal node, and these positions increase along the
// in-order of the internal nodes (u's left subtree, u, its right subtree).
inline std::uint64_t labeled_position(std::uint64_t leaves, NodeId u) {
  return leaf_position(leaves, leftmost_leaf(leaves, right_child(u)));
}

// Nearest pre-order position strictly left of `pos` whose leaf label is
// < bound; kNoPosition when no such leaf exists. O(1).
//
// The leaves labeled < bound are those labeled by the internal nodes of
// depth < bound (a top part T of the heap), plus position 0 when its own
// all-left label is < bound. By the in-order property the answer is an
// in-order predecessor search over T: walking down toward leaf x, a node
// whose labeled position is < pos is a candidate and the walk turns right,
// otherwise it turns left. That walk follows x's ancestors until it meets
// x's own labeler u* (x is the leftmost leaf of u*'s right child), turns
// left there, and then runs down the right spine of u*'s left child. So the
// answer is the bottom of that spine inside T, or else the labeled position
// of the deepest ancestor where the walk turned right.
inline std::uint64_t nearest_smaller_left(std::uint64_t leaves,
                                          std::uint64_t pos,
                                          std::uint32_t bound) {
  if (bound <= 1) return kNoPosition;  // labels are >= 1
  const std::uint32_t max_depth = bound - 1;  // deepest node of T
  const NodeId x = leaf_index(leaves, pos);
  const NodeId owner = x >> (std::countr_zero(x) + 1);  // u*; 0 if all-left
  NodeId walk_end;  // the walk's last node on x's root path
  if (owner != 0 && depth(owner) <= max_depth) {
    const NodeId w = left_child(owner);
    if (w < leaves && depth(w) <= max_depth) {
      // Bottom of w's right spine, (w+1)·2^k - 1, inside T: k is capped by
      // depth and by staying internal ((w+1)·2^k <= L).
      std::uint32_t k = max_depth - depth(w);
      const std::uint32_t fit = floor_log2(leaves) - floor_log2(w + 1);
      k = std::min(k, ((w + 1) << fit) <= leaves ? fit : fit - 1);
      return labeled_position(leaves, ((w + 1) << k) - 1);
    }
    walk_end = owner;
  } else {
    const std::uint32_t d = depth(x);
    walk_end = x >> (d - 1 - std::min(max_depth, d - 1));
  }
  // Deepest proper ancestor whose right subtree holds walk_end.
  const NodeId turned_right = walk_end >> (std::countr_zero(walk_end) + 1);
  if (turned_right != 0) return labeled_position(leaves, turned_right);
  if (pos > 0 && label_at(leaves, 0) < bound) return 0;
  return kNoPosition;
}

// Nearest pre-order position strictly right of `pos` with leaf label < bound.
// The in-order successor search over T (see nearest_smaller_left) follows
// x's ancestors down to depth bound - 1 — at x's labeler the labeled
// position is pos itself, not right of it, so the walk turns right, toward
// x — and the answer is the labeled position of the deepest ancestor where
// it turned left. Position 0 is never right of anything. O(1).
inline std::uint64_t nearest_smaller_right(std::uint64_t leaves,
                                           std::uint64_t pos,
                                           std::uint32_t bound) {
  if (bound <= 1) return kNoPosition;
  const NodeId x = leaf_index(leaves, pos);
  const std::uint32_t d = depth(x);
  const NodeId walk_end = x >> (d - 1 - std::min(bound - 1, d - 1));
  const NodeId turned_left = walk_end >> (std::countr_one(walk_end) + 1);
  return turned_left != 0 ? labeled_position(leaves, turned_left)
                          : kNoPosition;
}

// Position and label of the minimum-label leaf within pre-order positions
// [lo, hi] (inclusive). The minimum is unique: for lo < hi let u be the
// lowest common ancestor of the two end leaves. Every internal node labels
// exactly one leaf, the leftmost of its right child, with its own depth, so
// u labels a leaf of the range with depth(u), and the other leaves of the
// range are labeled by nodes strictly inside u's subtree — deeper — except
// the leftmost leaf of u's subtree, whose label escapes above u (strictly
// smaller than depth(u)) or ends at its own depth (strictly larger). That
// leaf is in the range only when it is leaf lo. O(1).
struct RangeMinLabel {
  std::uint64_t pos = kNoPosition;
  std::uint32_t label = 0;
};

// Lowest common ancestor of two heap nodes: lift the deeper one to the
// other's depth, then drop the bits where they differ.
inline NodeId lowest_common_ancestor(NodeId a, NodeId b) {
  const std::uint32_t da = floor_log2(a);
  const std::uint32_t db = floor_log2(b);
  if (da > db) {
    a >>= da - db;
  } else {
    b >>= db - da;
  }
  return a >> std::bit_width(a ^ b);
}

inline RangeMinLabel min_label_in_range(std::uint64_t leaves, std::uint64_t lo,
                                        std::uint64_t hi) {
  REPRO_DCHECK(lo <= hi && hi < leaves);
  const NodeId first = leaf_index(leaves, lo);
  if (lo == hi) return {lo, leaf_label(leaves, first)};
  const NodeId u = lowest_common_ancestor(first, leaf_index(leaves, hi));
  RangeMinLabel best{
      leaf_position(leaves, leftmost_leaf(leaves, right_child(u))), depth(u)};
  if (leftmost_leaf(leaves, u) == first) {
    const std::uint32_t escape = leaf_label(leaves, first);
    if (escape < best.label) best = {lo, escape};
  }
  return best;
}

}  // namespace ampccut::binpath
