// Per-snapshot, lock-free proof memos for the MRKD hot path (ROADMAP item
// 4b): concurrent queries that touch the same ADS regions share derived
// proof material instead of re-deriving it per query.
//
//   DimTreeMemo   — the kDimMerkle coordinate-block Merkle tree of each
//                   codebook cluster. BuildReveal previously rebuilt this
//                   tree (NumBlocks(dims) leaf hashes + interior levels)
//                   for every partial reveal of every query; with the memo
//                   the first reveal of a cluster builds it once and every
//                   later reveal — same query or a concurrent one — runs
//                   only the O(revealed * log n) ProveSubset lookups.
//   LeafProofMemo — the serialized kTokenLeaf byte run of each MRKD leaf
//                   node (MrkdTree::PutLeafToken). Distinct queries
//                   reaching the same leaf then memcpy the token bytes
//                   instead of re-walking the entries.
//
// Concurrency model: one memo set is owned by one immutable engine
// snapshot (core::Snapshot) and dropped with it, so entries can never go
// stale — a snapshot's trees and list digests are frozen by construction,
// and the atomic epoch swap that publishes a new snapshot publishes new
// (empty) memos with it. Slots are std::atomic pointers, filled by
// build-then-CAS: racing builders compute identical bytes (the inputs are
// the snapshot's frozen state and the builds are deterministic), exactly
// one publishes, losers delete their copy and adopt the winner. Readers
// are wait-free after the first fill; no locks anywhere.
//
// Determinism: a memo changes *where* bytes come from, never what they
// are. Memo'd and memo-free serving produce byte-identical VOs — locked
// by golden/security tests — so the client and the tamper matrix cannot
// tell the difference.

#ifndef IMAGEPROOF_MRKD_MEMO_H_
#define IMAGEPROOF_MRKD_MEMO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "merkle/merkle_tree.h"
#include "mrkd/commit.h"

namespace imageproof::mrkd {

class MrkdTree;

// Shared counters for one memo (relaxed atomics; feeds the engine's
// cache/memo stats, not any control flow).
struct MemoStats {
  std::atomic<uint64_t> hits{0};    // served from a published slot
  std::atomic<uint64_t> builds{0};  // built here (published or discarded)
};

// Lazily built coordinate-block Merkle trees, one slot per cluster.
class DimTreeMemo {
 public:
  explicit DimTreeMemo(size_t num_clusters);
  ~DimTreeMemo();
  DimTreeMemo(const DimTreeMemo&) = delete;
  DimTreeMemo& operator=(const DimTreeMemo&) = delete;

  // The tree for cluster `id` with the given frozen coordinates. Builds and
  // publishes on first use; wait-free afterwards.
  const merkle::MerkleTree& Get(ClusterId id, const float* coords,
                                size_t dims) const;

  uint64_t hits() const { return stats_.hits.load(std::memory_order_relaxed); }
  uint64_t builds() const {
    return stats_.builds.load(std::memory_order_relaxed);
  }

 private:
  mutable std::vector<std::atomic<const merkle::MerkleTree*>> slots_;
  mutable MemoStats stats_;
};

// Lazily serialized leaf token bytes, one slot per tree node (interior
// slots stay empty; indexing by node keeps lookup O(1) and allocation-free).
class LeafProofMemo {
 public:
  explicit LeafProofMemo(size_t num_nodes);
  ~LeafProofMemo();
  LeafProofMemo(const LeafProofMemo&) = delete;
  LeafProofMemo& operator=(const LeafProofMemo&) = delete;

  // The serialized kTokenLeaf run for leaf `node_index` of `tree`.
  const Bytes& Get(const MrkdTree& tree, int node_index) const;

  uint64_t hits() const { return stats_.hits.load(std::memory_order_relaxed); }
  uint64_t builds() const {
    return stats_.builds.load(std::memory_order_relaxed);
  }

 private:
  mutable std::vector<std::atomic<const Bytes*>> slots_;
  mutable MemoStats stats_;
};

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_MEMO_H_
