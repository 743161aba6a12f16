// Cluster commitments for the MRKD-tree leaves, plus the candidate-reveal
// section of the BoVW verification object.
//
// A leaf of the MRKD-tree stores feature clusters; its digest (Definition 3)
// must bind each cluster's *coordinates* so the client can check distances.
// Two commitment modes are supported:
//
//   kFullVector  — ccommit = h(id | dims | coord_0 | ... | coord_{d-1});
//                  the base ImageProof scheme. Verifying a candidate
//                  requires revealing the whole vector.
//   kDimMerkle   — ccommit = h(id | dims | merkle_root(coord blocks));
//                  Optimization A (Section VI-A). The SP may reveal only the
//                  few dimensions whose partial distance already proves a
//                  candidate is not the nearest neighbor, authenticated by a
//                  Merkle subset proof. Trades client hashing for VO size.
//                  Merkle leaves cover kDimBlock consecutive dimensions —
//                  per-dimension leaves would make every sibling digest
//                  (32 B) cost more than the 4-byte coordinates it elides,
//                  so block granularity is what makes the optimization
//                  actually shrink the VO.
//
// The reveal section is shared across all MRKD-trees and all query vectors:
// each candidate cluster appears exactly once (the paper's sharing
// strategy), fully if it is some query's assigned cluster, partially
// otherwise (in kDimMerkle mode).

#ifndef IMAGEPROOF_MRKD_COMMIT_H_
#define IMAGEPROOF_MRKD_COMMIT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ann/points.h"
#include "common/bytes.h"
#include "common/status.h"
#include "crypto/digest.h"

namespace imageproof::mrkd {

using crypto::Digest;
using ClusterId = uint32_t;

enum class RevealMode : uint8_t {
  kFullVector = 0,
  kDimMerkle = 1,
};

// Dimensions per Merkle leaf in kDimMerkle mode.
inline constexpr size_t kDimBlock = 8;

class DimTreeMemo;  // memo.h — per-snapshot cache of coordinate-block trees

// The kDimMerkle Merkle leaf payloads for one cluster's coordinates, one
// per kDimBlock-dimension block (exported for DimTreeMemo, which builds
// the same trees BuildReveal would and must stay byte-identical).
std::vector<Bytes> CoordBlockLeaves(const float* coords, size_t dims);

// Commitment of one cluster (digest embedded in the leaf digest).
Digest ClusterCommitment(RevealMode mode, ClusterId id, const float* coords,
                         size_t dims);

// Owner-side batch form: commitments for every cluster of the codebook,
// parallel across clusters and hashed through the 4-lane batch digest API.
// (*out)[c] == ClusterCommitment(mode, c, points.row(c), points.dims()),
// byte-for-byte.
void ClusterCommitments(RevealMode mode, const ann::PointSet& points,
                        std::vector<Digest>* out);

// A cluster's entry in the reveal section.
struct ClusterReveal {
  ClusterId id = 0;
  bool full = true;
  std::vector<float> coords;           // full: all dims
  std::vector<uint32_t> dim_indices;   // partial: revealed dimension indices
  std::vector<float> dim_values;       // partial: their values
  std::vector<Digest> proof;           // partial: Merkle subset proof
};

// Lower bound on squared distance from q to a partially revealed cluster
// (sum over revealed dimensions only).
double PartialDistanceSq(const float* query,
                         const std::vector<uint32_t>& dim_indices,
                         const std::vector<float>& dim_values);

// SP side: builds the reveal for cluster `id`.
//
// * mode kFullVector, or `full_reveal`: reveals all coordinates.
// * mode kDimMerkle partial: greedily reveals the kDimBlock-dimension
//   blocks with the largest total squared difference against `queries`
//   until, for every query q in `queries` (paired with its exclusion bound
//   `bounds[q]`), PartialDistanceSq(q) > bounds[q]. Falls back to a full
//   reveal if the partial bound cannot strictly exceed every bound or if
//   the partial encoding would not be smaller.
// `memo` (optional) supplies the per-snapshot coordinate-block Merkle tree
// cache (memo.h): concurrent queries revealing the same cluster then share
// one tree build instead of re-deriving it. Output is byte-identical with
// or without it.
ClusterReveal BuildReveal(RevealMode mode, ClusterId id, const float* coords,
                          size_t dims, bool full_reveal,
                          const std::vector<const float*>& queries,
                          const std::vector<double>& bounds,
                          const DimTreeMemo* memo = nullptr);

// Client side: recomputes the cluster commitment from a reveal. Fails if a
// partial reveal is malformed (bad indices / proof). On success the caller
// compares the digest against the one bound into the MRKD leaf.
Status VerifyReveal(RevealMode mode, size_t dims, const ClusterReveal& reveal,
                    Digest* commitment_out);

// Client side, batch form over a whole reveal section:
// (*commitments)[i] is VerifyReveal's digest for reveals[i], and the call
// fails iff VerifyReveal fails for some reveal. The commitments of the
// full reveals are hashed four at a time on the interleaved Keccak.
Status VerifyReveals(RevealMode mode, size_t dims,
                     const std::vector<ClusterReveal>& reveals,
                     std::vector<Digest>* commitments);

// Canonical serialization of the whole reveal section.
void SerializeReveals(const std::vector<ClusterReveal>& reveals, ByteWriter& w);
Status DeserializeReveals(ByteReader& r, size_t dims,
                          std::vector<ClusterReveal>* out);

}  // namespace imageproof::mrkd

#endif  // IMAGEPROOF_MRKD_COMMIT_H_
