#include "invindex/merkle_inv_index.h"

#include <algorithm>
#include <cstring>

#include "common/parallel.h"
#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::invindex {

namespace {

// Digests every posting of a range of lists (chains interleaved four-wide).
void ChainLists(MerkleInvertedList** lists, size_t n) {
  HashPostingChains(
      n, [lists](size_t i) { return lists[i]->postings.size(); },
      [](size_t) { return Digest::Zero(); },
      [lists](size_t i, size_t j) {
        const MerklePosting& p = lists[i]->postings[j];
        return std::pair<ImageId, double>(p.id, p.impact);
      },
      [lists](size_t i, size_t j, const Digest& d) {
        lists[i]->postings[j].digest = d;
      });
}

}  // namespace

void PutPostingPreimage(uint8_t* out, ImageId id, double impact,
                        const Digest& next) {
  StoreU64(out, id);
  StoreF64(out + 8, impact);
  std::memcpy(out + 16, next.bytes.data(), crypto::kDigestSize);
}

void PutListPreimage(uint8_t* out, double weight, const Digest& theta_digest,
                     const Digest& first_posting_digest) {
  StoreF64(out, weight);
  std::memcpy(out + 8, theta_digest.bytes.data(), crypto::kDigestSize);
  std::memcpy(out + 8 + crypto::kDigestSize, first_posting_digest.bytes.data(),
              crypto::kDigestSize);
}

Digest PostingDigest(ImageId id, double impact, const Digest& next) {
  uint8_t preimage[kPostingPreimageSize];
  PutPostingPreimage(preimage, id, impact, next);
  return crypto::Sha3(preimage, sizeof(preimage));
}

Digest ListDigest(double weight, const Digest& theta_digest,
                  const Digest& first_posting_digest) {
  uint8_t preimage[kListPreimageSize];
  PutListPreimage(preimage, weight, theta_digest, first_posting_digest);
  return crypto::Sha3(preimage, sizeof(preimage));
}

MerkleInvertedIndex MerkleInvertedIndex::Build(
    size_t num_clusters,
    const std::vector<std::pair<ImageId, bovw::BovwVector>>& corpus,
    const bovw::ClusterWeights& weights, bool with_filters,
    uint32_t fingerprint_bits, uint64_t filter_seed,
    std::optional<cuckoo::CuckooParams> geometry) {
  MerkleInvertedIndex index;
  index.with_filters_ = with_filters;
  index.lists_.resize(num_clusters);

  // Gather raw postings per cluster.
  std::vector<std::vector<std::pair<ImageId, double>>> raw(num_clusters);
  for (const auto& [id, vec] : corpus) {
    double norm = vec.L2Norm();
    for (const auto& [c, f] : vec.entries) {
      if (c >= num_clusters) continue;
      double impact = bovw::ImpactValue(weights.WeightOf(c), f, norm);
      raw[c].emplace_back(id, impact);
    }
  }

  if (geometry.has_value()) {
    index.filter_params_ = *geometry;
  } else {
    size_t max_len = 1;
    for (const auto& r : raw) max_len = std::max(max_len, r.size());
    index.filter_params_ = cuckoo::CuckooParams::ForMaxItems(
        max_len, fingerprint_bits, filter_seed);
  }
  const cuckoo::CuckooParams& filter_params = index.filter_params_;

  // Every list is built independently (sort, filter, digest chain), so the
  // per-cluster loop parallelizes with bit-identical results. Chunked so
  // each worker can interleave the digest chains of its lists across the
  // four Keccak lanes.
  ParallelChunks(num_clusters, /*chunk=*/16, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      MerkleInvertedList& list = index.lists_[c];
      list.cluster = static_cast<ClusterId>(c);
      list.weight = weights.WeightOf(static_cast<ClusterId>(c));

      auto& postings = raw[c];
      std::sort(postings.begin(), postings.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      list.postings.resize(postings.size());
      for (size_t i = 0; i < postings.size(); ++i) {
        list.postings[i].id = postings[i].first;
        list.postings[i].impact = postings[i].second;
      }

      if (with_filters) {
        cuckoo::CuckooFilter filter(filter_params);
        for (const MerklePosting& p : list.postings) {
          // The 60% sizing rule keeps load under ~42%, so insertion cannot
          // realistically fail; if it ever did the ADS would be unusable, so
          // treat it as a fatal construction error.
          bool ok = filter.Insert(p.id);
          (void)ok;
        }
        list.theta_digest = filter.StateDigest();
        list.filter = std::move(filter);
      } else {
        list.theta_digest = Digest::Zero();
      }
    }

    std::vector<MerkleInvertedList*> ptrs;
    ptrs.reserve(end - begin);
    for (size_t c = begin; c < end; ++c) ptrs.push_back(&index.lists_[c]);
    ChainLists(ptrs.data(), ptrs.size());
    for (size_t c = begin; c < end; ++c) {
      MerkleInvertedList& list = index.lists_[c];
      list.digest = ListDigest(list.weight, list.theta_digest,
                               list.FirstPostingDigest());
    }
  });
  return index;
}

Result<MerkleInvertedIndex> MerkleInvertedIndex::Restore(
    const cuckoo::CuckooParams& geometry, bool with_filters,
    std::vector<MerkleInvertedList> lists) {
  MerkleInvertedIndex index;
  index.with_filters_ = with_filters;
  index.filter_params_ = geometry;
  for (size_t c = 0; c < lists.size(); ++c) {
    MerkleInvertedList& list = lists[c];
    if (list.cluster != static_cast<ClusterId>(c)) {
      return Status::Corrupted("inv restore: cluster id out of place");
    }
    // The committed ordering invariant (impact desc, id asc on ties) is what
    // PostingSearch's early-exit bounds rely on; a stored list violating it
    // is corrupt regardless of what its digests say.
    for (size_t i = 1; i < list.postings.size(); ++i) {
      const MerklePosting& a = list.postings[i - 1];
      const MerklePosting& b = list.postings[i];
      if (!(a.impact > b.impact || (a.impact == b.impact && a.id < b.id))) {
        return Status::Corrupted("inv restore: postings out of order");
      }
    }
    if (with_filters) {
      if (!list.filter.has_value() || list.filter->params() != geometry) {
        return Status::Corrupted(
            "inv restore: filter missing or geometry diverges");
      }
      list.theta_digest = list.filter->StateDigest();
    } else {
      if (list.filter.has_value()) {
        return Status::Corrupted("inv restore: unexpected filter");
      }
      list.theta_digest = Digest::Zero();
    }
    list.digest =
        ListDigest(list.weight, list.theta_digest, list.FirstPostingDigest());
  }
  index.lists_ = std::move(lists);
  return index;
}

Status MerkleInvertedIndex::VerifyChains() const {
  for (const MerkleInvertedList& list : lists_) {
    Digest next = Digest::Zero();
    for (size_t i = list.postings.size(); i-- > 0;) {
      next = PostingDigest(list.postings[i].id, list.postings[i].impact, next);
      if (next != list.postings[i].digest) {
        return Status::Corrupted("inv: stored posting chain digest diverges");
      }
    }
  }
  return Status::Ok();
}

Status MerkleInvertedIndex::RepairList(MerkleInvertedList* list, size_t upto) {
  if (with_filters_) {
    // The filter's state depends on insertion order over the whole list, so
    // it is always rebuilt in full (theta_digest must stay byte-identical
    // to a from-scratch build).
    cuckoo::CuckooFilter filter(filter_params_);
    for (const MerklePosting& p : list->postings) {
      if (!filter.Insert(p.id)) {
        return Status::Error(
            "inv: list outgrew the shared filter geometry; full rebuild "
            "required");
      }
    }
    list->theta_digest = filter.StateDigest();
    list->filter = std::move(filter);
  }
  // A posting's digest depends only on the chain suffix from it onward, so
  // entries at index >= upto are still valid: anchor there and recompute
  // only the prefix.
  upto = std::min(upto, list->postings.size());
  Digest next = upto < list->postings.size() ? list->postings[upto].digest
                                             : Digest::Zero();
  for (size_t i = upto; i-- > 0;) {
    next = PostingDigest(list->postings[i].id, list->postings[i].impact, next);
    list->postings[i].digest = next;
  }
  list->digest =
      ListDigest(list->weight, list->theta_digest, list->FirstPostingDigest());
  return Status::Ok();
}

Status MerkleInvertedIndex::ApplyInsert(ClusterId c, ImageId id, double impact) {
  if (c >= lists_.size()) return Status::Error("inv: cluster out of range");
  MerkleInvertedList& list = lists_[c];
  for (const MerklePosting& p : list.postings) {
    if (p.id == id) return Status::Error("inv: image already in list");
  }
  MerklePosting posting;
  posting.id = id;
  posting.impact = impact;
  auto pos = std::lower_bound(
      list.postings.begin(), list.postings.end(), posting,
      [](const MerklePosting& a, const MerklePosting& b) {
        if (a.impact != b.impact) return a.impact > b.impact;
        return a.id < b.id;
      });
  const size_t p = static_cast<size_t>(pos - list.postings.begin());
  list.postings.insert(pos, posting);
  // Digests after the insertion point are untouched: recompute [0, p].
  return RepairList(&list, p + 1);
}

Status MerkleInvertedIndex::ApplyRemove(ClusterId c, ImageId id) {
  if (c >= lists_.size()) return Status::Error("inv: cluster out of range");
  MerkleInvertedList& list = lists_[c];
  auto pos = std::find_if(list.postings.begin(), list.postings.end(),
                          [id](const MerklePosting& p) { return p.id == id; });
  if (pos == list.postings.end()) {
    return Status::Error("inv: image not in list");
  }
  const size_t p = static_cast<size_t>(pos - list.postings.begin());
  list.postings.erase(pos);
  // The suffix that followed the removed posting keeps its digests:
  // recompute [0, p).
  return RepairList(&list, p);
}

std::vector<Digest> MerkleInvertedIndex::ListDigests() const {
  std::vector<Digest> out(lists_.size());
  for (size_t i = 0; i < lists_.size(); ++i) out[i] = lists_[i].digest;
  return out;
}

size_t MerkleInvertedIndex::TotalPostings() const {
  size_t n = 0;
  for (const auto& l : lists_) n += l.postings.size();
  return n;
}

}  // namespace imageproof::invindex
