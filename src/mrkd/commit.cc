#include "mrkd/commit.h"

#include <algorithm>
#include <cstring>

#include "common/parallel.h"
#include "crypto/hasher.h"
#include "merkle/merkle_tree.h"
#include "mrkd/memo.h"

namespace imageproof::mrkd {

namespace {

size_t NumBlocks(size_t dims) { return (dims + kDimBlock - 1) / kDimBlock; }

// Merkle leaf payload for one block: the IEEE-754 bits of its coordinates
// (the last block may be shorter than kDimBlock).
Bytes BlockLeaf(const float* coords, size_t dims, size_t block) {
  ByteWriter w;
  size_t begin = block * kDimBlock;
  size_t end = std::min(dims, begin + kDimBlock);
  for (size_t d = begin; d < end; ++d) w.PutF32(coords[d]);
  return w.Take();
}

std::vector<Bytes> BlockLeaves(const float* coords, size_t dims) {
  size_t n = NumBlocks(dims);
  std::vector<Bytes> leaves(n);
  for (size_t b = 0; b < n; ++b) leaves[b] = BlockLeaf(coords, dims, b);
  return leaves;
}

// Commitment preimage: mode(u8) | id(u32) | dims(u32) | body, where the
// body is the coordinates (kFullVector) or the root of the coordinate-block
// Merkle tree (kDimMerkle).
constexpr size_t kCommitmentHeader = 1 + 4 + 4;

size_t CommitmentPreimageSize(RevealMode mode, size_t dims) {
  return kCommitmentHeader +
         (mode == RevealMode::kFullVector ? 4 * dims : crypto::kDigestSize);
}

void PutCommitmentHeader(uint8_t* out, RevealMode mode, ClusterId id,
                         size_t dims) {
  out[0] = static_cast<uint8_t>(mode);
  StoreU32(out + 1, id);
  StoreU32(out + 5, static_cast<uint32_t>(dims));
}

// out[i] = the commitment of cluster ids[i] at coords[i], for i in [0, n):
// the preimages are assembled back to back, a bounded chunk at a time, and
// digested four at a time.
void CommitmentsOf(RevealMode mode, const ClusterId* ids,
                   const float* const* coords, size_t n, size_t dims,
                   Digest* out) {
  constexpr size_t kChunk = 64;
  const size_t len = CommitmentPreimageSize(mode, dims);
  std::vector<uint8_t> preimages(std::min(n, kChunk) * len);
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t count = std::min(kChunk, n - base);
    for (size_t i = 0; i < count; ++i) {
      uint8_t* p = preimages.data() + i * len;
      PutCommitmentHeader(p, mode, ids[base + i], dims);
      p += kCommitmentHeader;
      const float* c = coords[base + i];
      if (mode == RevealMode::kFullVector) {
        for (size_t d = 0; d < dims; ++d) StoreF32(p + 4 * d, c[d]);
      } else {
        merkle::MerkleTree tree(BlockLeaves(c, dims));
        std::memcpy(p, tree.root().bytes.data(), crypto::kDigestSize);
      }
    }
    crypto::HashStridedBatch(preimages.data(), len, out + base, count);
  }
}

}  // namespace

std::vector<Bytes> CoordBlockLeaves(const float* coords, size_t dims) {
  return BlockLeaves(coords, dims);
}

Digest ClusterCommitment(RevealMode mode, ClusterId id, const float* coords,
                         size_t dims) {
  Digest out;
  CommitmentsOf(mode, &id, &coords, 1, dims, &out);
  return out;
}

void ClusterCommitments(RevealMode mode, const ann::PointSet& points,
                        std::vector<Digest>* out) {
  const size_t n = points.size();
  out->assign(n, Digest::Zero());
  ParallelChunks(n, /*chunk=*/256, [&](size_t begin, size_t end) {
    std::vector<ClusterId> ids(end - begin);
    std::vector<const float*> rows(end - begin);
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<ClusterId>(begin + i);
      rows[i] = points.row(begin + i);
    }
    CommitmentsOf(mode, ids.data(), rows.data(), ids.size(), points.dims(),
                  out->data() + begin);
  });
}

double PartialDistanceSq(const float* query,
                         const std::vector<uint32_t>& dim_indices,
                         const std::vector<float>& dim_values) {
  double acc = 0;
  for (size_t i = 0; i < dim_indices.size(); ++i) {
    double diff = static_cast<double>(query[dim_indices[i]]) - dim_values[i];
    acc += diff * diff;
  }
  return acc;
}

ClusterReveal BuildReveal(RevealMode mode, ClusterId id, const float* coords,
                          size_t dims, bool full_reveal,
                          const std::vector<const float*>& queries,
                          const std::vector<double>& bounds,
                          const DimTreeMemo* memo) {
  ClusterReveal reveal;
  reveal.id = id;
  if (mode == RevealMode::kFullVector || full_reveal || queries.empty()) {
    reveal.full = true;
    reveal.coords.assign(coords, coords + dims);
    return reveal;
  }

  // Greedy block selection: order blocks by total squared difference summed
  // over the queries this cluster must be excluded for.
  const size_t num_blocks = NumBlocks(dims);
  std::vector<double> gain(num_blocks, 0.0);
  for (const float* q : queries) {
    for (size_t d = 0; d < dims; ++d) {
      double diff = static_cast<double>(q[d]) - coords[d];
      gain[d / kDimBlock] += diff * diff;
    }
  }
  std::vector<uint32_t> order(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) order[b] = static_cast<uint32_t>(b);
  std::sort(order.begin(), order.end(),
            [&gain](uint32_t a, uint32_t b) { return gain[a] > gain[b]; });

  std::vector<double> partial(queries.size(), 0.0);
  std::vector<uint32_t> chosen_blocks;
  bool all_excluded = false;
  for (uint32_t blk : order) {
    chosen_blocks.push_back(blk);
    size_t begin = static_cast<size_t>(blk) * kDimBlock;
    size_t end = std::min(dims, begin + kDimBlock);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t d = begin; d < end; ++d) {
        double diff = static_cast<double>(queries[qi][d]) - coords[d];
        partial[qi] += diff * diff;
      }
    }
    all_excluded = true;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (partial[qi] <= bounds[qi]) {
        all_excluded = false;
        break;
      }
    }
    if (all_excluded) break;
  }

  if (!all_excluded || chosen_blocks.size() >= num_blocks) {
    // Partial reveal cannot strictly beat every bound (e.g., exact ties),
    // or would reveal everything anyway: fall back to the full vector.
    reveal.full = true;
    reveal.coords.assign(coords, coords + dims);
    return reveal;
  }

  std::sort(chosen_blocks.begin(), chosen_blocks.end());
  reveal.full = false;
  for (uint32_t blk : chosen_blocks) {
    size_t begin = static_cast<size_t>(blk) * kDimBlock;
    size_t end = std::min(dims, begin + kDimBlock);
    for (size_t d = begin; d < end; ++d) {
      reveal.dim_indices.push_back(static_cast<uint32_t>(d));
      reveal.dim_values.push_back(coords[d]);
    }
  }
  if (memo) {
    reveal.proof = memo->Get(id, coords, dims).ProveSubset(chosen_blocks);
  } else {
    merkle::MerkleTree tree(BlockLeaves(coords, dims));
    reveal.proof = tree.ProveSubset(chosen_blocks);
  }
  return reveal;
}

Status VerifyReveal(RevealMode mode, size_t dims, const ClusterReveal& reveal,
                    Digest* commitment_out) {
  if (reveal.full) {
    if (reveal.coords.size() != dims) {
      return Status::Error("reveal: wrong coordinate count");
    }
    *commitment_out =
        ClusterCommitment(mode, reveal.id, reveal.coords.data(), dims);
    return Status::Ok();
  }
  if (mode != RevealMode::kDimMerkle) {
    return Status::Error("reveal: partial reveal in full-vector mode");
  }
  if (reveal.dim_indices.size() != reveal.dim_values.size() ||
      reveal.dim_indices.empty()) {
    return Status::Error("reveal: malformed partial reveal");
  }
  // Revealed dimensions must form complete, strictly increasing blocks.
  std::vector<uint32_t> block_indices;
  std::vector<Bytes> payloads;
  const size_t num_blocks = NumBlocks(dims);
  size_t i = 0;
  while (i < reveal.dim_indices.size()) {
    uint32_t d0 = reveal.dim_indices[i];
    if (d0 % kDimBlock != 0) {
      return Status::Error("reveal: partial reveal not block-aligned");
    }
    uint32_t blk = d0 / kDimBlock;
    if (!block_indices.empty() && blk <= block_indices.back()) {
      return Status::Error("reveal: blocks out of order");
    }
    size_t block_len = std::min<size_t>(kDimBlock, dims - d0);
    if (i + block_len > reveal.dim_indices.size()) {
      return Status::Error("reveal: incomplete block");
    }
    ByteWriter w;
    for (size_t j = 0; j < block_len; ++j) {
      if (reveal.dim_indices[i + j] != d0 + j) {
        return Status::Error("reveal: incomplete block");
      }
      w.PutF32(reveal.dim_values[i + j]);
    }
    block_indices.push_back(blk);
    payloads.push_back(w.Take());
    i += block_len;
  }

  Digest root;
  Status s = merkle::ReconstructSubsetRoot(num_blocks, block_indices, payloads,
                                           reveal.proof, &root);
  if (!s.ok()) return s;
  uint8_t preimage[kCommitmentHeader + crypto::kDigestSize];
  PutCommitmentHeader(preimage, mode, reveal.id, dims);
  std::memcpy(preimage + kCommitmentHeader, root.bytes.data(),
              crypto::kDigestSize);
  *commitment_out = crypto::Sha3(preimage, sizeof(preimage));
  return Status::Ok();
}

Status VerifyReveals(RevealMode mode, size_t dims,
                     const std::vector<ClusterReveal>& reveals,
                     std::vector<Digest>* commitments) {
  commitments->assign(reveals.size(), Digest::Zero());
  // Full reveals are digested together; partial reveals reconstruct their
  // Merkle subset roots one by one.
  std::vector<uint32_t> full;  // reveal index of each full reveal
  std::vector<ClusterId> ids;
  std::vector<const float*> coords;
  for (size_t i = 0; i < reveals.size(); ++i) {
    const ClusterReveal& rev = reveals[i];
    if (!rev.full) {
      Status s = VerifyReveal(mode, dims, rev, &(*commitments)[i]);
      if (!s.ok()) return s;
      continue;
    }
    if (rev.coords.size() != dims) {
      return Status::Error("reveal: wrong coordinate count");
    }
    full.push_back(static_cast<uint32_t>(i));
    ids.push_back(rev.id);
    coords.push_back(rev.coords.data());
  }
  std::vector<Digest> digests(full.size());
  CommitmentsOf(mode, ids.data(), coords.data(), full.size(), dims,
                digests.data());
  for (size_t j = 0; j < full.size(); ++j) {
    (*commitments)[full[j]] = digests[j];
  }
  return Status::Ok();
}

void SerializeReveals(const std::vector<ClusterReveal>& reveals, ByteWriter& w) {
  w.PutVarint(reveals.size());
  for (const ClusterReveal& r : reveals) {
    w.PutVarint(r.id);
    w.PutU8(r.full ? 1 : 0);
    if (r.full) {
      for (float v : r.coords) w.PutF32(v);
    } else {
      w.PutVarint(r.dim_indices.size());
      for (size_t i = 0; i < r.dim_indices.size(); ++i) {
        w.PutVarint(r.dim_indices[i]);
        w.PutF32(r.dim_values[i]);
      }
      w.PutVarint(r.proof.size());
      for (const Digest& d : r.proof) crypto::PutDigest(w, d);
    }
  }
}

Status DeserializeReveals(ByteReader& r, size_t dims,
                          std::vector<ClusterReveal>* out) {
  uint64_t count;
  Status s = r.GetVarint(&count);
  if (!s.ok()) return s;
  // Each reveal needs at least 3 bytes (id + flag + payload byte).
  if (count > r.remaining() / 3) {
    return Status::Error("reveal: count exceeds input size");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ClusterReveal rev;
    uint64_t id;
    if (!(s = r.GetVarint(&id)).ok()) return s;
    rev.id = static_cast<ClusterId>(id);
    uint8_t full = 0;
    if (!(s = r.GetU8(&full)).ok()) return s;
    rev.full = full != 0;
    if (rev.full) {
      rev.coords.resize(dims);
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
      // The canonical encoding is the in-memory layout: one bulk copy.
      s = r.GetBytes(4 * dims, reinterpret_cast<uint8_t*>(rev.coords.data()));
      if (!s.ok()) return s;
#else
      for (size_t d = 0; d < dims; ++d) {
        if (!(s = r.GetF32(&rev.coords[d])).ok()) return s;
      }
#endif
    } else {
      uint64_t n;
      if (!(s = r.GetVarint(&n)).ok()) return s;
      if (n == 0 || n > dims) return Status::Error("reveal: bad dim count");
      rev.dim_indices.resize(n);
      rev.dim_values.resize(n);
      for (uint64_t j = 0; j < n; ++j) {
        uint64_t d;
        if (!(s = r.GetVarint(&d)).ok()) return s;
        if (d >= dims) return Status::Error("reveal: dim index out of range");
        rev.dim_indices[j] = static_cast<uint32_t>(d);
        if (!(s = r.GetF32(&rev.dim_values[j])).ok()) return s;
      }
      uint64_t proof_len;
      if (!(s = r.GetVarint(&proof_len)).ok()) return s;
      if (proof_len > dims + 64) return Status::Error("reveal: proof too long");
      rev.proof.resize(proof_len);
      for (uint64_t j = 0; j < proof_len; ++j) {
        if (!(s = crypto::GetDigest(r, &rev.proof[j])).ok()) return s;
      }
    }
    out->push_back(std::move(rev));
  }
  return Status::Ok();
}

}  // namespace imageproof::mrkd
