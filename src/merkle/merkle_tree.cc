#include "merkle/merkle_tree.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/parallel.h"
#include "crypto/hasher.h"

namespace imageproof::merkle {

namespace {

// Largest power of two strictly less than n (n >= 2).
size_t SplitPoint(size_t n) {
  size_t p = 1;
  while (p * 2 < n) p *= 2;
  return p;
}

Digest HashNode(const Digest& left, const Digest& right) {
  return crypto::DigestBuilder()
      .AddU8(0x01)
      .AddDigest(left)
      .AddDigest(right)
      .Finalize();
}

// Batch granularity for the level-parallel build. Fixed (not derived from
// the thread count) so the chunk decomposition — and therefore every digest
// — is identical at any max_threads.
constexpr size_t kBuildChunk = 1024;

}  // namespace

Digest MerkleTree::HashLeaf(const Bytes& payload) {
  return crypto::DigestBuilder().AddU8(0x00).AddBytes(payload).Finalize();
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaf_payloads,
                       const MerkleBuildOptions& options)
    : leaf_count_(leaf_payloads.size()) {
  if (leaf_count_ == 0) {
    root_ = Digest::Zero();
    return;
  }
  const unsigned threads =
      leaf_count_ < options.parallel_grain ? 1 : options.max_threads;

  // Level 0: leaf digests, batch-hashed in chunks. Each chunk assembles the
  // 0x00-prefixed messages into one scratch buffer and feeds them to the
  // 4-lane engine.
  levels_.emplace_back(leaf_count_);
  std::vector<Digest>& leaf_level = levels_[0];
  ParallelChunks(
      leaf_count_, kBuildChunk,
      [&](size_t begin, size_t end) {
        const size_t count = end - begin;
        size_t total = 0;
        for (size_t i = begin; i < end; ++i) {
          total += 1 + leaf_payloads[i].size();
        }
        std::vector<uint8_t> scratch(total);
        std::vector<BytesView> msgs;
        msgs.reserve(count);
        size_t off = 0;
        for (size_t i = begin; i < end; ++i) {
          const Bytes& p = leaf_payloads[i];
          scratch[off] = 0x00;
          if (!p.empty()) std::memcpy(scratch.data() + off + 1, p.data(), p.size());
          msgs.emplace_back(scratch.data() + off, 1 + p.size());
          off += 1 + p.size();
        }
        crypto::HashBatch(msgs.data(), leaf_level.data() + begin, count);
      },
      threads);

  // Pair up each level; an odd trailing node is carried to the next level
  // unchanged (it is the right child of some ancestor higher up — the
  // largest-power-of-two split never pads).
  while (levels_.back().size() > 1) {
    const std::vector<Digest>& prev = levels_.back();
    const size_t pairs = prev.size() / 2;
    std::vector<Digest> next((prev.size() + 1) / 2);
    ParallelChunks(
        pairs, kBuildChunk,
        [&](size_t begin, size_t end) {
          const size_t count = end - begin;
          std::vector<Digest> lefts(count);
          std::vector<Digest> rights(count);
          for (size_t i = 0; i < count; ++i) {
            lefts[i] = prev[2 * (begin + i)];
            rights[i] = prev[2 * (begin + i) + 1];
          }
          crypto::HashPairBatch(0x01, lefts.data(), rights.data(),
                                next.data() + begin, count);
        },
        threads);
    if (prev.size() % 2 != 0) next.back() = prev.back();
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

size_t MerkleTree::UpdateLeaf(size_t index, const Bytes& new_payload) {
  levels_[0][index] = HashLeaf(new_payload);
  size_t hashed = 1;
  size_t idx = index;
  for (size_t k = 0; k + 1 < levels_.size(); ++k) {
    const std::vector<Digest>& cur = levels_[k];
    const size_t parent = idx / 2;
    Digest& dst = levels_[k + 1][parent];
    if (2 * parent + 1 < cur.size()) {
      dst = HashNode(cur[2 * parent], cur[2 * parent + 1]);
      ++hashed;
    } else {
      dst = cur[2 * parent];  // carried-up odd node: no hash
    }
    idx = parent;
  }
  root_ = levels_.back()[0];
  return hashed;
}

const Digest& MerkleTree::NodeDigest(size_t begin, size_t end) const {
  // Every subtree the recursion visits covers [begin, begin + len) with
  // begin divisible by 2^ceil(log2(len)) — so it is exactly the stored
  // node levels_[k][begin >> k].
  const size_t len = end - begin;
  const size_t k =
      len == 1 ? 0 : static_cast<size_t>(std::bit_width(len - 1));
  return levels_[k][begin >> k];
}

void MerkleTree::ProveRange(size_t begin, size_t end,
                            const std::vector<uint32_t>& indices,
                            size_t idx_begin, size_t idx_end,
                            std::vector<Digest>* out) const {
  if (idx_begin == idx_end) {
    // No revealed leaf inside this subtree: emit its digest.
    out->push_back(NodeDigest(begin, end));
    return;
  }
  if (end - begin == 1) return;  // the leaf itself is revealed
  size_t mid = begin + SplitPoint(end - begin);
  size_t idx_mid = idx_begin;
  while (idx_mid < idx_end && indices[idx_mid] < mid) ++idx_mid;
  ProveRange(begin, mid, indices, idx_begin, idx_mid, out);
  ProveRange(mid, end, indices, idx_mid, idx_end, out);
}

std::vector<Digest> MerkleTree::ProveSubset(
    const std::vector<uint32_t>& indices) const {
  std::vector<Digest> out;
  if (leaf_count_ == 0) return out;
  ProveRange(0, leaf_count_, indices, 0, indices.size(), &out);
  return out;
}

namespace {

// Mirrors ProveRange, consuming payloads/proof digests in the same order.
Status VerifyRange(size_t begin, size_t end,
                   const std::vector<uint32_t>& indices,
                   const std::vector<Bytes>& payloads, size_t idx_begin,
                   size_t idx_end, const std::vector<Digest>& proof,
                   size_t* proof_pos, Digest* out) {
  if (idx_begin == idx_end) {
    if (*proof_pos >= proof.size()) {
      return Status::Error("merkle: proof too short");
    }
    *out = proof[(*proof_pos)++];
    return Status::Ok();
  }
  if (end - begin == 1) {
    if (indices[idx_begin] != begin || idx_end - idx_begin != 1) {
      return Status::Error("merkle: indices out of order or duplicated");
    }
    *out = MerkleTree::HashLeaf(payloads[idx_begin]);
    return Status::Ok();
  }
  size_t mid = begin + SplitPoint(end - begin);
  size_t idx_mid = idx_begin;
  while (idx_mid < idx_end && indices[idx_mid] < mid) ++idx_mid;
  Digest left, right;
  Status s = VerifyRange(begin, mid, indices, payloads, idx_begin, idx_mid,
                         proof, proof_pos, &left);
  if (!s.ok()) return s;
  s = VerifyRange(mid, end, indices, payloads, idx_mid, idx_end, proof,
                  proof_pos, &right);
  if (!s.ok()) return s;
  *out = HashNode(left, right);
  return Status::Ok();
}

}  // namespace

Status ReconstructSubsetRoot(size_t leaf_count,
                             const std::vector<uint32_t>& indices,
                             const std::vector<Bytes>& payloads,
                             const std::vector<Digest>& proof,
                             Digest* root_out) {
  if (indices.size() != payloads.size()) {
    return Status::Error("merkle: indices/payloads size mismatch");
  }
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= leaf_count) return Status::Error("merkle: index out of range");
    if (i > 0 && indices[i] <= indices[i - 1]) {
      return Status::Error("merkle: indices not strictly increasing");
    }
  }
  if (leaf_count == 0) {
    if (!indices.empty() || !proof.empty()) {
      return Status::Error("merkle: nonempty proof for empty tree");
    }
    *root_out = Digest::Zero();
    return Status::Ok();
  }
  size_t proof_pos = 0;
  Status s = VerifyRange(0, leaf_count, indices, payloads, 0, indices.size(),
                         proof, &proof_pos, root_out);
  if (!s.ok()) return s;
  if (proof_pos != proof.size()) return Status::Error("merkle: proof too long");
  return Status::Ok();
}

Status MerkleTree::VerifySubset(size_t leaf_count, const Digest& root,
                                const std::vector<uint32_t>& indices,
                                const std::vector<Bytes>& payloads,
                                const std::vector<Digest>& proof) {
  Digest computed = Digest::Zero();
  Status s = ReconstructSubsetRoot(leaf_count, indices, payloads, proof,
                                   &computed);
  if (!s.ok()) return s;
  if (leaf_count > 0 && computed != root) {
    return Status::Error("merkle: root mismatch");
  }
  return Status::Ok();
}

}  // namespace imageproof::merkle
