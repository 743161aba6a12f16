#include "invindex/verify.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "common/varint_kernels.h"
#include "crypto/hasher.h"
#include "invindex/merkle_inv_index.h"
#include "invindex/vo_compress.h"

namespace imageproof::invindex {

namespace {

struct ParsedList {
  ClusterId cluster = 0;
  double weight = 0.0;
  std::vector<std::pair<ImageId, double>> popped;
  bool has_remaining = false;
  bool filter_included = false;
  Digest first_remaining = Digest::Zero();
  Bytes filter_bytes;
  Digest theta_digest = Digest::Zero();
};

Status ParseLists(const Bytes& vo, bool expect_filters,
                  std::vector<ParsedList>* out) {
  ByteReader r(vo);
  uint8_t vo_flags;
  Status s = r.GetU8(&vo_flags);
  if (!s.ok()) return s;
  if (vo_flags > 3) return Status::Error("inv: non-canonical flag byte");
  const bool compressed = vo_flags & kVoFlagCompressed;
  const uint8_t use_filters = vo_flags & 1;
  if ((use_filters != 0) != expect_filters) {
    return Status::Error("inv: VO filter mode mismatch");
  }
  uint64_t num_lists;
  if (!(s = r.GetVarint(&num_lists)).ok()) return s;
  if (num_lists > r.remaining() / 10) {
    return Status::Error("inv: list count exceeds input size");
  }
  out->clear();
  out->reserve(num_lists);
  std::vector<uint32_t> id_buf, hi_buf;  // reused across lists
  for (uint64_t i = 0; i < num_lists; ++i) {
    ParsedList pl;
    uint64_t cid;
    if (!(s = r.GetVarint(&cid)).ok()) return s;
    pl.cluster = static_cast<ClusterId>(cid);
    if (!(s = r.GetF64(&pl.weight)).ok()) return s;
    uint64_t num_popped;
    if (!(s = r.GetVarint(&num_popped)).ok()) return s;
    // Each popped posting occupies at least 9 bytes uncompressed (varint
    // id + f64 impact) and at least 6 compressed (>=1.25-byte group-varint
    // id and impact-high words + 4-byte impact-low word), so a count
    // beyond the remaining input is a lie; this bounds the allocation by
    // the input size.
    if (num_popped > r.remaining() / (compressed ? 6 : 9)) {
      return Status::Error("inv: popped count exceeds input size");
    }
    pl.popped.reserve(num_popped);
    if (!compressed) {
      for (uint64_t j = 0; j < num_popped; ++j) {
        uint64_t id;
        double impact;
        if (!(s = r.GetVarint(&id)).ok()) return s;
        if (!(s = r.GetF64(&impact)).ok()) return s;
        pl.popped.emplace_back(id, impact);
      }
    } else if (num_popped > 0) {
      uint8_t lflags = 0;
      if (!(s = r.GetU8(&lflags)).ok()) return s;
      if (lflags & ~(kGvIds | kGvImpacts)) {
        return Status::Error("inv: unknown list flags");
      }
      pl.popped.resize(num_popped);
      if (lflags & kGvIds) {
        // ZigZag deltas (postings ride in impact order, so ids are not
        // monotone); the first value is the absolute id, zigzagged.
        id_buf.resize(num_popped);
        if (!(s = kern::GroupVarintDecode(r, num_popped, id_buf.data())).ok()) {
          return s;
        }
        uint64_t prev = 0;
        for (uint64_t j = 0; j < num_popped; ++j) {
          prev = static_cast<uint64_t>(static_cast<int64_t>(prev) +
                                       kern::ZigZagDecode32(id_buf[j]));
          pl.popped[j].first = prev;
        }
      } else {
        for (uint64_t j = 0; j < num_popped; ++j) {
          uint64_t id;
          if (!(s = r.GetVarint(&id)).ok()) return s;
          pl.popped[j].first = id;
        }
      }
      if (lflags & kGvImpacts) {
        // Impacts descend, so the high words of their IEEE-754 bit
        // patterns never increase: ship the first high word absolute and
        // the rest as non-negative deltas, then the raw low words.
        hi_buf.resize(num_popped);
        if (!(s = kern::GroupVarintDecode(r, num_popped, hi_buf.data())).ok()) {
          return s;
        }
        uint32_t hi = 0;
        for (uint64_t j = 0; j < num_popped; ++j) {
          hi = (j == 0) ? hi_buf[j] : hi - hi_buf[j];
          uint32_t lo = 0;
          if (!(s = r.GetU32(&lo)).ok()) return s;
          uint64_t bits = (static_cast<uint64_t>(hi) << 32) | lo;
          pl.popped[j].second = std::bit_cast<double>(bits);
        }
      } else {
        for (uint64_t j = 0; j < num_popped; ++j) {
          if (!(s = r.GetF64(&pl.popped[j].second)).ok()) return s;
        }
      }
    }
    uint8_t flags = 0;
    if (!(s = r.GetU8(&flags)).ok()) return s;
    if (flags & ~3u) return Status::Error("inv: unknown flags");
    pl.has_remaining = flags & 1;
    pl.filter_included = flags & 2;
    if (pl.filter_included && !expect_filters) {
      return Status::Error("inv: filter shipped in baseline mode");
    }
    if (pl.has_remaining) {
      if (!(s = crypto::GetDigest(r, &pl.first_remaining)).ok()) return s;
    }
    if (expect_filters) {
      if (pl.filter_included) {
        if (!(s = r.GetBlob(&pl.filter_bytes)).ok()) return s;
      } else {
        if (!(s = crypto::GetDigest(r, &pl.theta_digest)).ok()) return s;
      }
    }
    out->push_back(std::move(pl));
  }
  if (!r.AtEnd()) return Status::Error("inv: trailing bytes in VO");
  return Status::Ok();
}

}  // namespace

Status VerifyInvVo(const Bytes& vo, const bovw::BovwVector& query_bovw,
                   const std::vector<ImageId>& claimed_topk,
                   size_t requested_k, bool expect_filters,
                   InvVerifyResult* out) {
  std::vector<ParsedList> lists;
  Status s = ParseLists(vo, expect_filters, &lists);
  if (!s.ok()) return s;

  // The VO must cover exactly the query's BoVW support, in order.
  if (lists.size() != query_bovw.entries.size()) {
    return Status::Error("inv: VO does not cover the query's BoVW support");
  }
  for (size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].cluster != query_bovw.entries[i].first) {
      return Status::Error("inv: VO cluster set mismatch");
    }
  }

  // Reconstruct every h_Gamma. The digests are independent across lists:
  // the posting chains run interleaved on the 4-way Keccak, then the
  // filter-state digests h(Theta) and the list preimages go through one
  // batch each.
  const size_t n = lists.size();
  std::vector<std::optional<cuckoo::CuckooFilter>> filters(n);
  std::vector<Digest> thetas(n, Digest::Zero());
  std::vector<BytesView> filter_msgs;
  std::vector<uint32_t> filter_lists;  // list index of each filter_msgs entry
  for (size_t i = 0; i < n; ++i) {
    const ParsedList& pl = lists[i];
    if (pl.weight < 0) return Status::Error("inv: negative weight");
    if (!expect_filters) continue;
    if (!pl.filter_included) {
      thetas[i] = pl.theta_digest;
      continue;
    }
    auto f = cuckoo::CuckooFilter::Deserialize(pl.filter_bytes);
    if (!f.ok()) return f.status();
    filters[i] = std::move(*f);
    // Deserialize accepts only the canonical encoding (it is the exact
    // inverse of Serialize), so h(Theta) = StateDigest() is the digest of
    // the shipped bytes themselves.
    filter_msgs.emplace_back(pl.filter_bytes);
    filter_lists.push_back(static_cast<uint32_t>(i));
  }
  {
    std::vector<Digest> digests(filter_msgs.size());
    crypto::HashBatch(filter_msgs.data(), digests.data(), filter_msgs.size());
    for (size_t j = 0; j < digests.size(); ++j) {
      thetas[filter_lists[j]] = digests[j];
    }
  }
  std::vector<Digest> heads(n);
  for (size_t i = 0; i < n; ++i) {
    heads[i] = lists[i].has_remaining ? lists[i].first_remaining
                                      : Digest::Zero();
  }
  HashPostingChains(
      n, [&lists](size_t i) { return lists[i].popped.size(); },
      [&heads](size_t i) { return heads[i]; },
      [&lists](size_t i, size_t j) { return lists[i].popped[j]; },
      [&heads](size_t i, size_t j, const Digest& d) {
        if (j == 0) heads[i] = d;
      });
  {
    std::vector<uint8_t> preimages(n * kListPreimageSize);
    for (size_t i = 0; i < n; ++i) {
      PutListPreimage(preimages.data() + i * kListPreimageSize,
                      lists[i].weight, thetas[i], heads[i]);
    }
    std::vector<Digest> digests(n);
    crypto::HashStridedBatch(preimages.data(), kListPreimageSize,
                             digests.data(), n);
    out->list_digests.clear();
    out->list_digests.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out->list_digests.emplace_back(lists[i].cluster, digests[i]);
    }
  }

  const double norm = query_bovw.L2Norm();
  std::vector<BoundsList> bounds_lists;
  std::vector<const ParsedList*> relevant;  // aligned with bounds_lists

  for (size_t i = 0; i < n; ++i) {
    const ParsedList& pl = lists[i];
    out->popped_postings += pl.popped.size();

    uint32_t freq = query_bovw.FrequencyOf(pl.cluster);
    double q_impact = bovw::ImpactValue(pl.weight, freq, norm);
    bool is_relevant =
        q_impact > 0 && (pl.has_remaining || !pl.popped.empty());

    if (!is_relevant) {
      // Reveal discipline: an irrelevant (or empty) list must not pop
      // postings or ship a filter.
      if (q_impact <= 0 && !pl.popped.empty()) {
        return Status::Error("inv: postings popped for irrelevant list");
      }
      if (pl.filter_included) {
        return Status::Error("inv: filter shipped for irrelevant list");
      }
      continue;
    }
    // A relevant list must be bounded: either something was popped (finite
    // cap) or it is exhausted.
    if (requested_k > 0 && pl.popped.empty() && pl.has_remaining) {
      return Status::Error("inv: relevant list with no popped postings");
    }
    if (expect_filters && pl.has_remaining && !pl.filter_included) {
      return Status::Error("inv: missing filter for relevant list");
    }
    BoundsList bl;
    bl.cluster = pl.cluster;
    bl.q_impact = q_impact;
    bl.filter = std::move(filters[i]);
    bounds_lists.push_back(std::move(bl));
    relevant.push_back(&pl);
  }

  // Replay every pop in canonical order.
  BoundsEngine engine(std::move(bounds_lists), expect_filters);
  for (size_t li = 0; li < relevant.size(); ++li) {
    for (const auto& [id, impact] : relevant[li]->popped) {
      s = engine.AddPopped(li, id, impact);
      if (!s.ok()) return s;
    }
    if (!relevant[li]->has_remaining) engine.MarkExhausted(li);
  }

  // The claimed results must be exactly the best popped images.
  if (claimed_topk.size() > requested_k) {
    return Status::Error("inv: more results than requested");
  }
  std::unordered_set<ImageId> dedup(claimed_topk.begin(), claimed_topk.end());
  if (dedup.size() != claimed_topk.size()) {
    return Status::Error("inv: duplicate result ids");
  }
  if (requested_k == 0) {
    // Nothing was requested, so nothing needs proving beyond the digests.
    if (!claimed_topk.empty() || out->popped_postings != 0) {
      return Status::Error("inv: nonempty proof for an empty request");
    }
    out->topk.clear();
    out->topk_exact = true;  // vacuously: no claimed scores
    return Status::Ok();
  }
  if (claimed_topk.size() < requested_k) {
    // Fewer than k results are only acceptable when the relevant lists are
    // provably drained and contain no further distinct image.
    for (size_t li = 0; li < relevant.size(); ++li) {
      if (!engine.Exhausted(li)) {
        return Status::Error("inv: short result set with unpopped postings");
      }
    }
    if (engine.Scores().size() != claimed_topk.size()) {
      return Status::Error("inv: short result set hides popped images");
    }
  }
  double sk_lower = 0;
  if (!VerifyClaimedTopK(engine, claimed_topk, &sk_lower)) {
    return Status::Error("inv: claimed results are not the top-k popped images");
  }

  // Termination conditions.
  if (sk_lower < engine.PiUpper()) {
    return Status::Error("inv: condition 1 fails (unseen images may rank higher)");
  }
  std::unordered_set<ImageId> topk_set(claimed_topk.begin(), claimed_topk.end());
  for (const auto& [id, score] : engine.Scores()) {
    if (topk_set.contains(id)) continue;
    if (engine.SUpper(id) > sk_lower) {
      return Status::Error("inv: condition 2 fails (popped image may rank higher)");
    }
  }

  out->topk_exact = true;
  for (ImageId id : claimed_topk) {
    if (!engine.PossibleLists(id).empty()) {
      out->topk_exact = false;
      break;
    }
  }

  out->topk.clear();
  for (ImageId id : claimed_topk) {
    out->topk.push_back({id, engine.ScoreOf(id)});
  }
  std::sort(out->topk.begin(), out->topk.end(),
            [](const bovw::ScoredImage& a, const bovw::ScoredImage& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return Status::Ok();
}

}  // namespace imageproof::invindex
