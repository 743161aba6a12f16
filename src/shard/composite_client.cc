#include "shard/composite_client.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/vo.h"

namespace imageproof::shard {

namespace {

Status Unsound(uint32_t shard_id, const std::string& what) {
  return Status::Error("composite verify: shard " + std::to_string(shard_id) +
                       ": " + what);
}

}  // namespace

Result<CompositeVerifiedResults> CompositeClient::VerifyComposite(
    const std::vector<std::vector<float>>& features, size_t k,
    const Bytes& composite_bytes) const {
  CompositeVO vo;
  if (Status s = CompositeVO::Deserialize(composite_bytes, &vo); !s.ok()) {
    return s;
  }

  // 1. Manifest authenticity.
  ShardManifest manifest;
  if (Status s = ShardManifest::Deserialize(vo.manifest_bytes, &manifest);
      !s.ok()) {
    return s;
  }
  if (!manifest.VerifySignature(params_.public_key)) {
    return Status::Error(
        "composite verify: manifest signature verification failed");
  }

  // 2. Coverage: one entry per shard, in slot order.
  if (vo.entries.size() != manifest.num_shards) {
    return Status::Error(
        "composite verify: entry count " +
        std::to_string(vo.entries.size()) + " != manifest shard count " +
        std::to_string(manifest.num_shards) + " (dropped or extra shard)");
  }
  for (uint32_t sid = 0; sid < manifest.num_shards; ++sid) {
    if (vo.entries[sid].shard_id != sid) {
      return Unsound(sid, "entry claims shard " +
                              std::to_string(vo.entries[sid].shard_id) +
                              " (reordered or duplicated slot)");
    }
  }

  CompositeVerifiedResults out;
  out.manifest_epoch = manifest.epoch;
  out.num_shards = manifest.num_shards;
  out.per_shard.reserve(manifest.num_shards);

  // 3. The BoVW encoding, proven once for every shard.
  const core::Client bovw_verifier(params_);
  Result<core::VerifiedBovw> bovw =
      bovw_verifier.VerifyBovwSection(features, vo.bovw);
  if (!bovw.ok()) {
    const Status& s = bovw.status();
    return Status::WithCode(s.code(),
                            "composite verify: BoVW section: " + s.message());
  }
  if (bovw->forest_root != manifest.codebook_root) {
    return Status::Error(
        "composite verify: BoVW section does not replay to the manifest's "
        "codebook root");
  }

  // 4-6. Per-shard verification against that vector, pinned to the
  // manifest.
  for (uint32_t sid = 0; sid < manifest.num_shards; ++sid) {
    const CompositeEntry& entry = vo.entries[sid];
    core::QueryVO shard_vo;
    if (Status s = core::QueryVO::Deserialize(entry.vo_bytes, &shard_vo);
        !s.ok()) {
      return s;
    }
    core::PublicParams shard_params = params_;
    shard_params.root_signature = entry.root_signature;
    core::Client verifier(std::move(shard_params));
    auto verified = verifier.VerifyEntry(*bovw, k, shard_vo);
    if (!verified.ok()) {
      const Status& s = verified.status();
      return Status::WithCode(s.code(), "composite verify: shard " +
                                            std::to_string(sid) + ": " +
                                            s.message());
    }
    core::VerifiedResults& vr = *verified;
    if (!manifest.shards[sid].Allows(vr.root_digest)) {
      return Unsound(sid,
                     "replayed root is not in the manifest's digest set "
                     "(stale epoch or spliced shard response)");
    }
    if (!vr.topk_scores_exact) {
      return Unsound(sid, "scores are lower bounds, not provably exact");
    }
    for (const bovw::ScoredImage& r : vr.topk) {
      if (ShardManifest::ShardOf(r.id, manifest.num_shards) != sid) {
        return Unsound(sid, "result id " + std::to_string(r.id) +
                                " violates the id-mod partition");
      }
    }
    out.per_shard.push_back(std::move(vr));
  }

  // 7. The merge, recomputed from verified exact scores. Completeness: a
  // global top-k member is in its shard's local top-k (same k), and every
  // shard's local top-k was just proven; the partition check above rules
  // out one image appearing under two shards.
  struct Slot {
    uint32_t shard;
    size_t index;
  };
  std::vector<std::pair<bovw::ScoredImage, Slot>> all;
  for (uint32_t sid = 0; sid < manifest.num_shards; ++sid) {
    const core::VerifiedResults& vr = out.per_shard[sid];
    for (size_t i = 0; i < vr.topk.size(); ++i) {
      all.push_back({vr.topk[i], Slot{sid, i}});
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first.score != b.first.score) return a.first.score > b.first.score;
    return a.first.id < b.first.id;
  });
  const size_t take = std::min(k, all.size());
  out.topk.reserve(take);
  out.images.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.topk.push_back(all[i].first);
    out.images.push_back(
        out.per_shard[all[i].second.shard].images[all[i].second.index]);
  }
  return out;
}

}  // namespace imageproof::shard
