// Incremental deployment updates (an extension beyond the paper's static
// ADSs, enabled by its own building blocks: cuckoo filters support
// deletion, posting chains re-derive locally, and the MRKD-tree refreshes
// along leaf-to-root paths).
//
// Inserting or deleting one image touches only the lists of its visual
// words: each affected list is re-sorted/re-chained and its filter rebuilt
// under the index-wide geometry; the changed list digests propagate up the
// MRKD-trees in O(n_t log n_C) hashes; finally the owner re-signs the new
// root digest and republishes the signature.
//
// Cluster weights w_c stay frozen at build time — the standard IR practice
// between periodic full rebuilds. Frozen weights are merely the owner's
// chosen (and committed) scoring constants, so soundness and completeness
// of every query against the *current* signed state are unaffected.

#ifndef IMAGEPROOF_CORE_UPDATE_H_
#define IMAGEPROOF_CORE_UPDATE_H_

#include "core/owner.h"

namespace imageproof::core {

struct UpdateStats {
  size_t lists_updated = 0;
  // ADS nodes rehashed: MRKD-tree nodes, or list-tree digests in the
  // split-root layout.
  size_t mrkd_nodes_rehashed = 0;
  // SHA3 message digests computed by this update (crypto::HashInvocations()
  // delta) — the benchmark's evidence that the incremental path does
  // prefix/path-local work, not a full ADS rebuild.
  uint64_t hash_invocations = 0;
};

// Adds a new image to a live deployment. Fails (without changes committed
// to the signature) if the id already exists or a posting list outgrows the
// shared cuckoo-filter geometry, in which case a full rebuild is needed.
Result<UpdateStats> InsertImage(SpPackage* package,
                                const crypto::RsaPrivateKey& owner_key,
                                PublicParams* public_params, ImageId id,
                                bovw::BovwVector bovw, Bytes image_data);

// Removes an image from a live deployment.
Result<UpdateStats> DeleteImage(SpPackage* package,
                                const crypto::RsaPrivateKey& owner_key,
                                PublicParams* public_params, ImageId id);

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_UPDATE_H_
