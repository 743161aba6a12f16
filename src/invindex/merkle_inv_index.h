// Merkle inverted index with cuckoo filters (Section IV-B) — the second ADS
// of ImageProof.
//
// Each cluster c with a nonzero posting list gets a Merkle inverted list:
//   * postings <I, p_{I,c}> sorted by impact descending (id ascending on
//     ties), each carrying a backward-chained digest
//       h_{pos_j} = h(I | p_{I,c} | h_{pos_{j+1}})         (Definition 4)
//     with h_{pos_{n+1}} = 0^256, so a VO can reveal exactly a prefix;
//   * a cuckoo filter over the list's image ids (shared geometry across all
//     lists, as Lemma 1 requires);
//   * the list digest
//       h_Gamma = h(w_c | h(Theta) | h_{pos_1})            (Definition 5)
//     which the MRKD-tree leaves embed, linking the two ADSs.
//
// `with_filters = false` builds the plain variant used by the Baseline
// scheme (Pang & Mouratidis [15] adapted): same chain, h(Theta) fixed to
// 0^256, no filters shipped or consulted.

#ifndef IMAGEPROOF_INVINDEX_MERKLE_INV_INDEX_H_
#define IMAGEPROOF_INVINDEX_MERKLE_INV_INDEX_H_

#include <optional>
#include <utility>
#include <vector>

#include "bovw/bovw.h"
#include "crypto/digest.h"
#include "crypto/sha3.h"
#include "cuckoo/cuckoo_filter.h"

namespace imageproof::invindex {

using bovw::ClusterId;
using bovw::ImageId;
using crypto::Digest;

struct MerklePosting {
  ImageId id = 0;
  double impact = 0.0;
  Digest digest;  // h(id | impact | next digest)
};

// h(id | impact | next) — shared by the owner's build and the client's
// chain reconstruction.
Digest PostingDigest(ImageId id, double impact, const Digest& next);

// h(w | h(Theta) | h_pos1) per Definition 5.
Digest ListDigest(double weight, const Digest& theta_digest,
                  const Digest& first_posting_digest);

// The preimages of the two digests above, for batch hashing: a posting is
// id(8) | impact(8) | next(32) and a list w(8) | h(Theta)(32) | h_pos1(32),
// each one sponge block.
inline constexpr size_t kPostingPreimageSize = 8 + 8 + crypto::kDigestSize;
inline constexpr size_t kListPreimageSize = 8 + 2 * crypto::kDigestSize;
void PutPostingPreimage(uint8_t* out, ImageId id, double impact,
                        const Digest& next);
void PutListPreimage(uint8_t* out, double weight, const Digest& theta_digest,
                     const Digest& first_posting_digest);

// Walks n independent backward posting chains four at a time on the
// lane-interleaved Keccak. A chain is inherently sequential (posting j
// needs digest j+1), but different chains are independent, so each lane
// carries one chain and every Step() completes one posting per lane — the
// same digests as the serial PostingDigest loop. A drained lane picks up
// the next chain.
//   `length(i)`        postings in chain i;
//   `tail(i)`          the digest chained after its last posting;
//   `posting(i, j)`    its j-th posting as {id, impact};
//   `emit(i, j, d)`    receives posting j's digest, for j = length(i) - 1
//                      down to 0 (d at j = 0 is the chain head).
template <typename Length, typename Tail, typename Posting, typename Emit>
void HashPostingChains(size_t n, const Length& length, const Tail& tail,
                       const Posting& posting, const Emit& emit) {
  struct Lane {
    size_t chain = 0;
    size_t i = 0;  // postings remaining (current posting is i - 1)
    Digest next = Digest::Zero();
  };
  crypto::Sha3x4 eng;
  Lane lanes[crypto::Sha3x4::kLanes];
  uint8_t buf[crypto::Sha3x4::kLanes][kPostingPreimageSize];
  size_t next_chain = 0;
  int active = 0;

  auto start_msg = [&](int j) {
    const Lane& lane = lanes[j];
    const std::pair<ImageId, double> p = posting(lane.chain, lane.i - 1);
    PutPostingPreimage(buf[j], p.first, p.second, lane.next);
    eng.Start(j, buf[j], kPostingPreimageSize);
  };
  auto feed = [&](int j) -> bool {
    while (next_chain < n) {
      const size_t c = next_chain++;
      const size_t len = length(c);
      if (len == 0) continue;
      lanes[j] = Lane{c, len, tail(c)};
      start_msg(j);
      return true;
    }
    return false;
  };

  for (int j = 0; j < crypto::Sha3x4::kLanes; ++j) {
    if (feed(j)) ++active;
  }
  while (active > 0) {
    eng.Step();
    for (int j = 0; j < crypto::Sha3x4::kLanes; ++j) {
      if (!eng.done(j)) continue;
      Lane& lane = lanes[j];
      lane.next = eng.Take(j);
      emit(lane.chain, lane.i - 1, lane.next);
      if (--lane.i > 0) {
        start_msg(j);
      } else if (!feed(j)) {
        --active;
      }
    }
  }
}

struct MerkleInvertedList {
  ClusterId cluster = 0;
  double weight = 0.0;                 // w_c
  std::vector<MerklePosting> postings; // impact desc, id asc on ties
  std::optional<cuckoo::CuckooFilter> filter;  // nullopt in plain mode
  Digest theta_digest;                 // h(Theta); zero in plain mode
  Digest digest;                       // h_Gamma

  bool empty() const { return postings.empty(); }
  // Digest of the first posting, or zero for an empty list.
  Digest FirstPostingDigest() const {
    return postings.empty() ? Digest::Zero() : postings.front().digest;
  }
};

class MerkleInvertedIndex {
 public:
  // Builds the full index over a corpus of (image id, BoVW vector) pairs.
  // All filters share one geometry derived from the longest posting list
  // (the paper's 60% sizing rule) and `filter_seed` — unless `geometry` is
  // given, which pins the exact shared CuckooParams. The geometry is part
  // of the committed (signed) state: a reload of a package whose lists
  // grew through incremental updates must rebuild under the geometry the
  // digests were derived with, not one re-sized from the current lists.
  static MerkleInvertedIndex Build(
      size_t num_clusters,
      const std::vector<std::pair<ImageId, bovw::BovwVector>>& corpus,
      const bovw::ClusterWeights& weights, bool with_filters,
      uint32_t fingerprint_bits = 8, uint64_t filter_seed = 0xF117E2,
      std::optional<cuckoo::CuckooParams> geometry = std::nullopt);

  // Reattaches a persisted index WITHOUT walking the posting chains — the
  // cold-start path of the mmap package store. The caller supplies fully
  // populated lists (cluster, weight, postings with their stored chain
  // digests, deserialized filter); Restore validates the ordering
  // invariants and the shared filter geometry, then recomputes only
  // h(Theta) from the filter state and h_Gamma per Definition 5 — one hash
  // per list instead of one per posting. Stored chain digests are bound to
  // the owner's signature through h_pos1 (which h_Gamma covers), and
  // clients re-derive revealed chains on every query, so a tampered stored
  // digest fails either the open-time root check or client verification.
  static Result<MerkleInvertedIndex> Restore(
      const cuckoo::CuckooParams& geometry, bool with_filters,
      std::vector<MerkleInvertedList> lists);

  // Recomputes every posting-chain digest from the raw posting data and
  // compares it with the stored value — the package store's deep-verify
  // mode. kCorrupted on the first mismatch.
  Status VerifyChains() const;

  bool with_filters() const { return with_filters_; }
  size_t num_clusters() const { return lists_.size(); }
  const MerkleInvertedList& list(ClusterId c) const { return lists_[c]; }

  // h_Gamma per cluster, in cluster order — input to the MRKD-tree build.
  std::vector<Digest> ListDigests() const;

  size_t TotalPostings() const;

  // ----- Incremental updates (owner-side; see core/update.h) -----
  //
  // Weights are frozen at build time (the usual IR practice between full
  // index rebuilds), so an image touching a list changes only that list:
  // its posting is inserted/removed in impact order, the digest chain is
  // recomputed, and the filter is rebuilt deterministically with the
  // index-wide geometry. Fails if the shared filter geometry can no longer
  // hold the list (a full rebuild is then required).

  Status ApplyInsert(ClusterId c, ImageId id, double impact);
  Status ApplyRemove(ClusterId c, ImageId id);

  const cuckoo::CuckooParams& filter_params() const { return filter_params_; }

 private:
  // Recomputes the chain prefix [0, upto) against the still-valid suffix
  // anchor at `upto` (or the zero digest at the list end), rebuilds the
  // filter, and refreshes the list digest. Updates pass the smallest prefix
  // that covers their edit; a full rechain is upto == postings.size().
  Status RepairList(MerkleInvertedList* list, size_t upto);

  bool with_filters_ = true;
  cuckoo::CuckooParams filter_params_;
  std::vector<MerkleInvertedList> lists_;
};

}  // namespace imageproof::invindex

#endif  // IMAGEPROOF_INVINDEX_MERKLE_INV_INDEX_H_
