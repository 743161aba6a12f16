// The end-to-end verification object returned with every top-k query
// (Algorithm 5 line 7), and the public parameters clients hold.

#ifndef IMAGEPROOF_CORE_VO_H_
#define IMAGEPROOF_CORE_VO_H_

#include <vector>

#include "bovw/bovw.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/config.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"

namespace imageproof::core {

using bovw::ImageId;

// One retrieved image with its authenticity material.
struct ResultImage {
  ImageId id = 0;
  Bytes data;       // raw image bytes (what the owner signed)
  Bytes signature;  // sig_I = sign(h(I | h(img_I)))  (Eq. 15)
};

// The BoVW-step proof of a query ({VO_C,i}, the shared candidate reveals,
// the per-feature thresholds): what the client replays to recompute the
// query's BoVW vector, and the leading part of every QueryVO.
// A sharded composite VO (shard/composite.h) carries one, shared by every
// shard's entry.
struct BovwSection {
  std::vector<double> thresholds_sq;  // squared threshold per feature vector
  Bytes reveal_section;               // shared candidate reveals (union C_i)
  std::vector<Bytes> tree_vos;        // one token stream per MRKD-tree

  size_t ProofBytes() const;
  void Serialize(ByteWriter& w) const;
  // Hardened like QueryVO::Deserialize; does not require the reader to
  // end after the section.
  static Status Deserialize(ByteReader& r, BovwSection* out);
};

// VO for a whole query: the BoVW-step proof (the BovwSection it extends,
// encoded first) plus the inverted-index proof and the per-result
// signatures.
//
// In the split-root layout of a shard (core/owner.h) the VO also carries
// the list-tree multiproof of the query's support clusters, and a
// composite entry is the inverted-only form: the BoVW section is empty,
// the proof travelling once beside the entries.
struct QueryVO : BovwSection {
  Bytes inv_vo;                       // InvSearch / FgSearch VO
  std::vector<ResultImage> results;   // top-k images + signatures
  // Split-root layout only: merkle::MerkleTree::ProveSubset of the list
  // tree for the query's support clusters, ascending. Encoded after
  // `results` (varint count, digests) only when non-empty, so single-root
  // VO bytes are those of the paper's layout.
  std::vector<crypto::Digest> list_proof;

  size_t TotalBytes() const;
  // Size excluding the raw image payloads (the paper's VO-size metric).
  size_t ProofBytes() const;

  bool has_bovw_section() const {
    return !thresholds_sq.empty() || !reveal_section.empty() ||
           !tree_vos.empty();
  }
  // Moves the BoVW section out, leaving the inverted-only form.
  BovwSection TakeBovwSection();

  Bytes Serialize() const;
  static Status Deserialize(const Bytes& data, QueryVO* out);
};

// Published by the owner; everything a client needs to verify queries.
struct PublicParams {
  Config config;
  crypto::RsaPublicKey public_key;
  Bytes root_signature;  // over h(root_1 | ... | root_{n_t})
  size_t dims = 0;       // descriptor dimensionality
  size_t num_clusters = 0;
  // The package uses the split-root layout of a shard (core/owner.h), and
  // root_signature signs its split root. Set by the planner and
  // OpenShardedDeployment; not part of params.bin, which stores unsharded
  // deployments' parameters.
  bool split_root = false;
};

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_VO_H_
