#include "freqgroup/fg_verify.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/varint_kernels.h"
#include "freqgroup/fg_index.h"
#include "invindex/bounds.h"
#include "invindex/merkle_inv_index.h"
#include "invindex/vo_compress.h"

namespace imageproof::freqgroup {

using invindex::BoundsEngine;
using invindex::BoundsList;

namespace {

struct ParsedFgList {
  ClusterId cluster = 0;
  double weight = 0.0;
  std::vector<FgPosting> popped;  // members already in (norm, id) order
  bool has_remaining = false;
  bool filter_included = false;
  Digest first_remaining = Digest::Zero();
  Bytes filter_bytes;
  Digest theta_digest = Digest::Zero();
};

Status ParseLists(const Bytes& vo, bool expect_filters,
                  std::vector<ParsedFgList>* out) {
  ByteReader r(vo);
  uint8_t vo_flags;
  Status s = r.GetU8(&vo_flags);
  if (!s.ok()) return s;
  if (vo_flags > 3) return Status::Error("fg: non-canonical flag byte");
  const bool compressed = vo_flags & invindex::kVoFlagCompressed;
  const uint8_t use_filters = vo_flags & 1;
  if ((use_filters != 0) != expect_filters) {
    return Status::Error("fg: VO filter mode mismatch");
  }
  uint64_t num_lists;
  if (!(s = r.GetVarint(&num_lists)).ok()) return s;
  if (num_lists > r.remaining() / 10) {
    return Status::Error("fg: list count exceeds input size");
  }
  out->clear();
  out->reserve(num_lists);
  std::vector<uint32_t> gap_buf, norm_buf;  // reused across groups
  for (uint64_t i = 0; i < num_lists; ++i) {
    ParsedFgList pl;
    uint64_t cid;
    if (!(s = r.GetVarint(&cid)).ok()) return s;
    pl.cluster = static_cast<ClusterId>(cid);
    if (!(s = r.GetF64(&pl.weight)).ok()) return s;
    uint64_t num_groups;
    if (!(s = r.GetVarint(&num_groups)).ok()) return s;
    // A group needs at least 11 bytes uncompressed (freq + count + one
    // member), 7 compressed (freq + count + flags + two 2-byte blocks).
    if (num_groups > r.remaining() / (compressed ? 7 : 11)) {
      return Status::Error("fg: group count exceeds input size");
    }
    pl.popped.reserve(num_groups);
    for (uint64_t g = 0; g < num_groups; ++g) {
      FgPosting posting;
      uint64_t freq, num_members;
      if (!(s = r.GetVarint(&freq)).ok()) return s;
      if (freq == 0 || freq > (1u << 30)) return Status::Error("fg: bad freq");
      posting.freq = static_cast<uint32_t>(freq);
      if (!(s = r.GetVarint(&num_members)).ok()) return s;
      // A member needs at least 9 bytes uncompressed (varint id + f64
      // norm), 2 compressed (>=1.25 bytes per group-varint value, twice).
      if (num_members == 0 || num_members > r.remaining() / (compressed ? 2 : 9)) {
        return Status::Error("fg: bad member count");
      }
      posting.members.resize(num_members);
      if (!compressed) {
        ImageId prev = 0;
        for (uint64_t m = 0; m < num_members; ++m) {
          uint64_t gap;
          if (!(s = r.GetVarint(&gap)).ok()) return s;
          ImageId id = (m == 0) ? gap : prev + gap;
          if (m > 0 && gap == 0) {
            return Status::Error("fg: duplicate member id in group");
          }
          prev = id;
          posting.members[m].id = id;
          if (!(s = r.GetF64(&posting.members[m].norm)).ok()) return s;
          if (!(posting.members[m].norm > 0)) {
            return Status::Error("fg: non-positive norm");
          }
        }
      } else {
        uint8_t gflags = 0;
        if (!(s = r.GetU8(&gflags)).ok()) return s;
        if (gflags & ~(invindex::kGvIds | invindex::kGvNormsSq)) {
          return Status::Error("fg: unknown group flags");
        }
        ImageId prev = 0;
        if (gflags & invindex::kGvIds) {
          gap_buf.resize(num_members);
          if (!(s = kern::GroupVarintDecode(r, num_members, gap_buf.data()))
                   .ok()) {
            return s;
          }
          for (uint64_t m = 0; m < num_members; ++m) {
            if (m > 0 && gap_buf[m] == 0) {
              return Status::Error("fg: duplicate member id in group");
            }
            prev = (m == 0) ? gap_buf[m] : prev + gap_buf[m];
            posting.members[m].id = prev;
          }
        } else {
          for (uint64_t m = 0; m < num_members; ++m) {
            uint64_t gap;
            if (!(s = r.GetVarint(&gap)).ok()) return s;
            if (m > 0 && gap == 0) {
              return Status::Error("fg: duplicate member id in group");
            }
            prev = (m == 0) ? gap : prev + gap;
            posting.members[m].id = prev;
          }
        }
        if (gflags & invindex::kGvNormsSq) {
          norm_buf.resize(num_members);
          if (!(s = kern::GroupVarintDecode(r, num_members, norm_buf.data()))
                   .ok()) {
            return s;
          }
          for (uint64_t m = 0; m < num_members; ++m) {
            if (norm_buf[m] == 0) {
              return Status::Error("fg: non-positive norm");
            }
            posting.members[m].norm =
                std::sqrt(static_cast<double>(norm_buf[m]));
          }
        } else {
          for (uint64_t m = 0; m < num_members; ++m) {
            if (!(s = r.GetF64(&posting.members[m].norm)).ok()) return s;
            if (!(posting.members[m].norm > 0)) {
              return Status::Error("fg: non-positive norm");
            }
          }
        }
      }
      // Restore the canonical digest order.
      std::sort(posting.members.begin(), posting.members.end(),
                [](const FgMember& a, const FgMember& b) {
                  if (a.norm != b.norm) return a.norm < b.norm;
                  return a.id < b.id;
                });
      pl.popped.push_back(std::move(posting));
    }
    uint8_t flags = 0;
    if (!(s = r.GetU8(&flags)).ok()) return s;
    if (flags & ~3u) return Status::Error("fg: unknown flags");
    pl.has_remaining = flags & 1;
    pl.filter_included = flags & 2;
    if (pl.filter_included && !expect_filters) {
      return Status::Error("fg: filter shipped in baseline mode");
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
  if (!r.AtEnd()) return Status::Error("fg: trailing bytes in VO");
  return Status::Ok();
}

}  // namespace

Status FgVerifyVo(const Bytes& vo, const bovw::BovwVector& query_bovw,
                  const std::vector<ImageId>& claimed_topk, size_t requested_k,
                  bool expect_filters, InvVerifyResult* out) {
  std::vector<ParsedFgList> lists;
  Status s = ParseLists(vo, expect_filters, &lists);
  if (!s.ok()) return s;

  if (lists.size() != query_bovw.entries.size()) {
    return Status::Error("fg: VO does not cover the query's BoVW support");
  }
  for (size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].cluster != query_bovw.entries[i].first) {
      return Status::Error("fg: VO cluster set mismatch");
    }
  }

  const double norm = query_bovw.L2Norm();
  std::vector<BoundsList> bounds_lists;
  std::vector<const ParsedFgList*> relevant;

  for (const ParsedFgList& pl : lists) {
    if (pl.weight < 0) return Status::Error("fg: negative weight");
    Digest theta = Digest::Zero();
    std::optional<cuckoo::CuckooFilter> filter;
    if (expect_filters) {
      if (pl.filter_included) {
        auto f = cuckoo::CuckooFilter::Deserialize(pl.filter_bytes);
        if (!f.ok()) return f.status();
        theta = f->StateDigest();
        filter = std::move(*f);
      } else {
        theta = pl.theta_digest;
      }
    }
    Digest chain = pl.has_remaining ? pl.first_remaining : Digest::Zero();
    for (size_t g = pl.popped.size(); g-- > 0;) {
      chain = FgPostingDigest(pl.popped[g], chain);
    }
    out->list_digests.emplace_back(
        pl.cluster, invindex::ListDigest(pl.weight, theta, chain));
    for (const auto& p : pl.popped) out->popped_postings += p.members.size();

    uint32_t freq = query_bovw.FrequencyOf(pl.cluster);
    double q_impact = bovw::ImpactValue(pl.weight, freq, norm);
    bool is_relevant = q_impact > 0 && (pl.has_remaining || !pl.popped.empty());
    if (!is_relevant) {
      if (q_impact <= 0 && !pl.popped.empty()) {
        return Status::Error("fg: groups popped for irrelevant list");
      }
      if (pl.filter_included) {
        return Status::Error("fg: filter shipped for irrelevant list");
      }
      continue;
    }
    if (requested_k > 0 && pl.popped.empty() && pl.has_remaining) {
      return Status::Error("fg: relevant list with no popped groups");
    }
    if (expect_filters && pl.has_remaining && !pl.filter_included) {
      return Status::Error("fg: missing filter for relevant list");
    }
    BoundsList bl;
    bl.cluster = pl.cluster;
    bl.q_impact = q_impact;
    bl.filter = std::move(filter);
    bounds_lists.push_back(std::move(bl));
    relevant.push_back(&pl);
  }

  BoundsEngine engine(std::move(bounds_lists), expect_filters);
  for (size_t li = 0; li < relevant.size(); ++li) {
    const ParsedFgList& pl = *relevant[li];
    double weight = pl.weight;
    for (const FgPosting& p : pl.popped) {
      double cap = p.GroupImpact(weight);
      for (size_t m = 0; m < p.members.size(); ++m) {
        s = engine.AddPopped(li, p.members[m].id, p.MemberImpact(weight, m),
                             cap);
        if (!s.ok()) return s;
      }
    }
    if (!pl.has_remaining) engine.MarkExhausted(li);
  }

  if (claimed_topk.size() > requested_k) {
    return Status::Error("fg: more results than requested");
  }
  std::unordered_set<ImageId> dedup(claimed_topk.begin(), claimed_topk.end());
  if (dedup.size() != claimed_topk.size()) {
    return Status::Error("fg: duplicate result ids");
  }
  if (requested_k == 0) {
    // Nothing was requested, so nothing needs proving beyond the digests.
    if (!claimed_topk.empty() || out->popped_postings != 0) {
      return Status::Error("fg: nonempty proof for an empty request");
    }
    out->topk.clear();
    out->topk_exact = true;  // vacuously: no claimed scores
    return Status::Ok();
  }
  if (claimed_topk.size() < requested_k) {
    for (size_t li = 0; li < relevant.size(); ++li) {
      if (!engine.Exhausted(li)) {
        return Status::Error("fg: short result set with unpopped groups");
      }
    }
    if (engine.Scores().size() != claimed_topk.size()) {
      return Status::Error("fg: short result set hides popped images");
    }
  }
  double sk_lower = 0;
  if (!invindex::VerifyClaimedTopK(engine, claimed_topk, &sk_lower)) {
    return Status::Error("fg: claimed results are not the top-k popped images");
  }
  if (sk_lower < engine.PiUpper()) {
    return Status::Error("fg: condition 1 fails (unseen images may rank higher)");
  }
  std::unordered_set<ImageId> topk_set(claimed_topk.begin(), claimed_topk.end());
  for (const auto& [id, score] : engine.Scores()) {
    if (topk_set.contains(id)) continue;
    if (engine.SUpper(id) > sk_lower) {
      return Status::Error("fg: condition 2 fails (popped image may rank higher)");
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
  for (ImageId id : claimed_topk) out->topk.push_back({id, engine.ScoreOf(id)});
  std::sort(out->topk.begin(), out->topk.end(),
            [](const bovw::ScoredImage& a, const bovw::ScoredImage& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return Status::Ok();
}

}  // namespace imageproof::freqgroup
