// MRKDSearch (Algorithm 1): authenticated range search over the MRKD-tree
// for all query feature vectors in one traversal, sharing tree nodes.
//
// SP-side semantics: a query q_i is "active" at a node when the exact
// minimum distance from q_i to the node's region is <= its threshold t_i.
// A subtree with no active query is pruned and only its digest enters the
// VO; a reached leaf contributes every cluster it stores to the candidate
// set of each active query. The client replays the identical recursion
// (mrkd/verify.h), so activity decisions are bit-reproducible.
//
// The VO is a preorder token stream:
//   kPruned   digest(32B)
//   kLeaf     varint count, then per entry: varint cluster_id, digest(32B)
//             of the cluster's Merkle inverted list (omitted by a
//             codebook-only tree, mrkd/mrkd_tree.h)
//   kInternal varint split_dim, f32 split_value, then left and right
//             token streams
//
// Cluster coordinates are *not* in the stream; they travel once, globally,
// in the candidate-reveal section (mrkd/commit.h) — the paper's shared
// candidate strategy.
//
// Thread safety: both search entry points take the tree by const reference
// and keep ALL traversal state (the recursion context, offset vectors, VO
// writer, candidate sets) in per-call locals or in the caller-owned
// MrkdSearchScratch — no statics, no caches, no mutable members. Any number
// of searches may therefore run concurrently over one MrkdTree (one scratch
// per concurrent caller), across queries and across trees, provided no one
// mutates the tree (MrkdTree::RefreshListDigest) meanwhile. The query
// engine (core/query_engine.h) guarantees that by serving every query from
// an immutable package snapshot.

#ifndef IMAGEPROOF_MRKD_SEARCH_H_
#define IMAGEPROOF_MRKD_SEARCH_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "mrkd/mrkd_tree.h"

namespace imageproof::mrkd {

inline constexpr uint8_t kTokenPruned = 0;
inline constexpr uint8_t kTokenLeaf = 1;
inline constexpr uint8_t kTokenInternal = 2;

struct MrkdSearchStats {
  size_t traversed_nodes = 0;  // nodes with at least one active query
  size_t shared_nodes = 0;     // nodes with two or more active queries
  size_t pruned_subtrees = 0;

  double ShareRatio() const {
    return traversed_nodes == 0
               ? 0.0
               : static_cast<double>(shared_nodes) / traversed_nodes;
  }
};

struct TreeSearchOutput {
  Bytes vo;
  // candidates[i] = clusters of every leaf where query i was active.
  std::vector<std::vector<ClusterId>> candidates;
  MrkdSearchStats stats;
};

// Reusable traversal state: one Frame per recursion depth holding the
// active-set partition buffers the traversal previously allocated fresh at
// every internal node (six vectors per node visit). Frames live in a deque
// so references stay stable while deeper levels are appended; buffers only
// grow, so a warm scratch makes the traversal itself allocation-free (VO
// bytes and candidate output still allocate — they are returned to the
// caller). One scratch per (caller, concurrent search): not thread-safe.
struct MrkdSearchScratch {
  struct Frame {
    std::vector<uint32_t> left_active, right_active;
    std::vector<double> left_mindist, right_mindist;
    // (query, saved offset) pairs to restore after each child.
    std::vector<std::pair<uint32_t, double>> left_saved, right_saved;
  };
  std::deque<Frame> frames;                  // indexed by depth
  std::vector<std::vector<double>> offsets;  // [query][dim]
  std::vector<uint32_t> initial_active;
  std::vector<double> initial_mindist;
};

class LeafProofMemo;  // memo.h — per-snapshot leaf token byte cache

// Shared-node MRKDSearch (the paper's scheme). `thresholds_sq` are squared
// distances, one per query. `scratch` (optional) is reused across calls;
// `leaf_memo` (optional) serves memoized leaf token bytes shared across
// concurrent searches of the same frozen tree. Output is byte-identical
// with or without either.
TreeSearchOutput MrkdSearchShared(const MrkdTree& tree,
                                  const std::vector<const float*>& queries,
                                  const std::vector<double>& thresholds_sq,
                                  MrkdSearchScratch* scratch = nullptr,
                                  const LeafProofMemo* leaf_memo = nullptr);

// Baseline variant without node sharing: one independent traversal (and VO
// stream) per query, concatenated. Candidate semantics are identical.
TreeSearchOutput MrkdSearchUnshared(const MrkdTree& tree,
                                    const std::vector<const float*>& queries,
                                    const std::vector<double>& thresholds_sq,
                                    MrkdSearchScratch* scratch = nullptr,
                                    const LeafProofMemo* leaf_memo = nullptr);

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_SEARCH_H_
