#include "core/client.h"

#include <algorithm>
#include <cstring>

#include "common/stopwatch.h"
#include "crypto/hasher.h"
#include "freqgroup/fg_verify.h"
#include "invindex/verify.h"
#include "mrkd/verify.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace imageproof::core {

namespace {

// Client-side verification metrics: one timer per ADS check (Section V-C
// step), plus the VO size broken down by component — the paper's VO-size
// figures are exactly these series.
struct ClientMetrics {
  obs::Counter& verifies;
  obs::Counter& verify_failures;
  obs::Histogram& verify_us;
  obs::Histogram& reveal_verify_us;
  obs::Histogram& mrkd_replay_us;
  obs::Histogram& bovw_check_us;
  obs::Histogram& inv_verify_us;
  obs::Histogram& sig_verify_us;
  obs::Histogram& vo_reveal_bytes;
  obs::Histogram& vo_tree_bytes;
  obs::Histogram& vo_inv_bytes;
  obs::Histogram& vo_result_bytes;

  static ClientMetrics& Get() {
    static ClientMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return ClientMetrics{r.GetCounter("client.verifies"),
                           r.GetCounter("client.verify_failures"),
                           r.GetHistogram("client.verify_us"),
                           r.GetHistogram("client.stage.reveal_verify_us"),
                           r.GetHistogram("client.stage.mrkd_replay_us"),
                           r.GetHistogram("client.stage.bovw_check_us"),
                           r.GetHistogram("client.stage.inv_verify_us"),
                           r.GetHistogram("client.stage.sig_verify_us"),
                           r.GetHistogram("client.vo.reveal_bytes"),
                           r.GetHistogram("client.vo.tree_bytes"),
                           r.GetHistogram("client.vo.inv_bytes"),
                           r.GetHistogram("client.vo.result_bytes")};
    }();
    return m;
  }
};

}  // namespace

Result<VerifiedResults> Client::Verify(
    const std::vector<std::vector<float>>& features, size_t k,
    const QueryVO& vo) const {
  ClientMetrics& met = ClientMetrics::Get();
  met.verifies.Add();
  met.vo_reveal_bytes.Record(vo.reveal_section.size());
  uint64_t tree_bytes = 0;
  for (const Bytes& t : vo.tree_vos) tree_bytes += t.size();
  met.vo_tree_bytes.Record(tree_bytes);
  met.vo_inv_bytes.Record(vo.inv_vo.size());
  uint64_t result_bytes = 0;
  for (const ResultImage& ri : vo.results) {
    result_bytes += ri.data.size() + ri.signature.size();
  }
  met.vo_result_bytes.Record(result_bytes);

  obs::ScopedTimer total_timer(met.verify_us);
  Result<VerifiedResults> out = VerifyImpl(features, k, vo);
  if (!out.ok()) met.verify_failures.Add();
  return out;
}

namespace {

// Steps 1-3: the reveal section, the MRKD replay, and the BoVW encoding.
// The replayed root is returned, not checked against any signature.
Status CheckBovw(const PublicParams& params,
                 const std::vector<std::vector<float>>& features,
                 const std::vector<double>& thresholds_sq,
                 const Bytes& reveal_section,
                 const std::vector<Bytes>& tree_vos, bool leaves_bind_lists,
                 VerifiedBovw* out) {
  const Config& config = params.config;
  const size_t dims = params.dims;
  const size_t nq = features.size();

  for (const auto& f : features) {
    if (f.size() != dims) return Status::Error("client: feature dims mismatch");
  }
  if (thresholds_sq.size() != nq) {
    return Status::Error("client: threshold count mismatch");
  }
  for (double t : thresholds_sq) {
    if (!(t >= 0) || !std::isfinite(t)) {
      return Status::Error("client: invalid threshold");
    }
  }

  // ---- Step 1: candidate reveals -> commitments + distance evidence ----
  ClientMetrics& met = ClientMetrics::Get();
  obs::ScopedTimer reveal_timer(met.reveal_verify_us);
  std::vector<mrkd::ClusterReveal> reveals;
  {
    ByteReader r(reveal_section);
    Status s = mrkd::DeserializeReveals(r, dims, &reveals);
    if (!s.ok()) return s;
    if (!r.AtEnd()) return Status::Error("client: trailing reveal bytes");
  }
  // Table entry i is reveals[i]: the MRKD replay marks candidates by entry.
  {
    std::vector<crypto::Digest> digests;
    Status s = mrkd::VerifyReveals(config.reveal_mode, dims, reveals, &digests);
    if (!s.ok()) return s;
    std::vector<mrkd::ClusterId> ids(reveals.size());
    for (size_t i = 0; i < reveals.size(); ++i) ids[i] = reveals[i].id;
    if (!(s = out->commitments.Assign(ids, std::move(digests))).ok()) return s;
  }

  reveal_timer.Stop();

  // ---- Step 2: MRKD replay ----
  obs::ScopedTimer replay_timer(met.mrkd_replay_us);
  std::vector<const float*> queries(nq);
  for (size_t i = 0; i < nq; ++i) queries[i] = features[i].data();

  if (tree_vos.size() != static_cast<size_t>(config.forest.num_trees)) {
    return Status::Error("client: wrong number of tree VOs");
  }
  mrkd::ForestVerifyOutput forest;
  {
    Status s = mrkd::VerifyForestVo(tree_vos, dims, out->commitments, queries,
                                    thresholds_sq, config.share_nodes, &forest,
                                    leaves_bind_lists);
    if (!s.ok()) return s;
  }
  crypto::DigestBuilder roots;
  for (const crypto::Digest& root : forest.roots) roots.AddDigest(root);
  out->forest_root = roots.Finalize();
  out->list_digests = std::move(forest.list_digests);

  replay_timer.Stop();

  // ---- Step 3: BoVW encoding ----
  obs::ScopedTimer bovw_check_timer(met.bovw_check_us);
  std::vector<bovw::ClusterId> assignment(nq);
  for (size_t i = 0; i < nq; ++i) {
    const uint8_t* is_candidate = forest.candidate.data() + i * reveals.size();
    // Nearest among fully revealed candidates.
    bool any_candidate = false;
    bool have_full = false;
    double best = 0;
    mrkd::ClusterId best_c = 0;
    for (size_t e = 0; e < reveals.size(); ++e) {
      if (!is_candidate[e]) continue;
      any_candidate = true;
      const mrkd::ClusterReveal& rev = reveals[e];
      if (!rev.full) continue;
      double d = ann::SquaredL2(queries[i], rev.coords.data(), dims);
      if (!have_full || d < best || (d == best && rev.id < best_c)) {
        best = d;
        best_c = rev.id;
        have_full = true;
      }
    }
    if (!any_candidate) {
      return Status::Error("client: no candidate cluster for a feature vector");
    }
    if (!have_full) {
      return Status::Error(
          "client: no fully revealed candidate for a feature vector");
    }
    if (best > thresholds_sq[i]) {
      return Status::Error(
          "client: assigned cluster outside the search threshold");
    }
    // Every partially revealed candidate must be provably farther.
    for (size_t e = 0; e < reveals.size(); ++e) {
      const mrkd::ClusterReveal& rev = reveals[e];
      if (!is_candidate[e] || rev.full) continue;
      double lb = mrkd::PartialDistanceSq(queries[i], rev.dim_indices,
                                          rev.dim_values);
      if (lb <= best) {
        return Status::Error(
            "client: partial candidate not provably farther than assignment");
      }
    }
    assignment[i] = best_c;
  }
  out->query_bovw = bovw::CountAssignments(assignment);
  return Status::Ok();
}

// Step 4 without the list-digest authentication, which depends on the
// layout: the inverted-index VO scored on `query_bovw`.
Status CheckInverted(const Config& config, const bovw::BovwVector& query_bovw,
                     size_t k, const Bytes& search_vo,
                     const std::vector<ResultImage>& results,
                     invindex::InvVerifyResult* inv) {
  std::vector<ImageId> claimed;
  claimed.reserve(results.size());
  for (const ResultImage& ri : results) claimed.push_back(ri.id);
  return config.freq_grouped
             ? freqgroup::FgVerifyVo(search_vo, query_bovw, claimed, k,
                                     config.with_filters, inv)
             : invindex::VerifyInvVo(search_vo, query_bovw, claimed, k,
                                     config.with_filters, inv);
}

// Step 5: each signed result's Eq. (15) signature, then the verified
// results in top-k order.
Status CheckImages(const Config& config, const crypto::RsaVerifier& verifier,
                   const std::vector<ResultImage>& results,
                   const invindex::InvVerifyResult& inv,
                   VerifiedResults* out) {
  ClientMetrics& met = ClientMetrics::Get();
  obs::ScopedTimer sig_timer(met.sig_verify_us);
  {
    // Eq. (15) digests h(id | h(payload)) of every signed result, both
    // rounds batched across results.
    std::vector<const ResultImage*> signed_results;
    std::vector<BytesView> payloads;
    for (const ResultImage& ri : results) {
      if (!config.sign_images && ri.signature.empty()) continue;  // bench mode
      signed_results.push_back(&ri);
      payloads.emplace_back(ri.data);
    }
    const size_t n = signed_results.size();
    std::vector<crypto::Digest> digests(n);
    crypto::HashBatch(payloads.data(), digests.data(), n);
    constexpr size_t kImagePreimage = 8 + crypto::kDigestSize;
    std::vector<uint8_t> preimages(n * kImagePreimage);
    for (size_t i = 0; i < n; ++i) {
      uint8_t* p = preimages.data() + i * kImagePreimage;
      StoreU64(p, signed_results[i]->id);
      std::memcpy(p + 8, digests[i].bytes.data(), crypto::kDigestSize);
    }
    crypto::HashStridedBatch(preimages.data(), kImagePreimage, digests.data(),
                             n);
    for (size_t i = 0; i < n; ++i) {
      if (!verifier.Verify(digests[i], signed_results[i]->signature)) {
        return Status::Error("client: image signature verification failed");
      }
    }
  }

  sig_timer.Stop();

  out->topk = inv.topk;
  out->topk_scores_exact = inv.topk_exact;
  for (const auto& si : out->topk) {
    for (const ResultImage& ri : results) {
      if (ri.id == si.id) {
        out->images.push_back(ri.data);
        break;
      }
    }
  }
  return Status::Ok();
}

// Steps 4-5 of the split-root layout, scored on a verified BoVW step.
Result<VerifiedResults> VerifySplitInverted(const PublicParams& params,
                                            const VerifiedBovw& bovw, size_t k,
                                            const QueryVO& vo) {
  VerifiedResults out;
  Stopwatch inv_timer;
  ClientMetrics& met = ClientMetrics::Get();
  obs::ScopedTimer inv_verify_timer(met.inv_verify_us);
  invindex::InvVerifyResult inv;
  Status s = CheckInverted(params.config, bovw.query_bovw, k, vo.inv_vo,
                           vo.results, &inv);
  if (!s.ok()) return s;

  // The reconstructed list digests authenticate through the list tree: its
  // root, with the codebook root the BoVW replay rebuilt, is the shard root
  // the owner signed.
  std::vector<uint32_t> indices;
  std::vector<Bytes> leaves;
  indices.reserve(inv.list_digests.size());
  leaves.reserve(inv.list_digests.size());
  for (const auto& [c, digest] : inv.list_digests) {
    indices.push_back(c);
    leaves.push_back(ListLeaf(digest));
  }
  crypto::Digest list_root;
  s = merkle::ReconstructSubsetRoot(params.num_clusters, indices, leaves,
                                    vo.list_proof, &list_root);
  if (!s.ok()) {
    return Result<VerifiedResults>::Error("client: bad list-tree proof: " +
                                          s.message());
  }
  crypto::RsaVerifier verifier(params.public_key);
  out.root_digest = SplitRootDigest(bovw.forest_root, list_root);
  if (!verifier.Verify(out.root_digest, params.root_signature)) {
    return Result<VerifiedResults>::Error(
        "client: shard root signature verification failed");
  }

  inv_verify_timer.Stop();

  if (!(s = CheckImages(params.config, verifier, vo.results, inv, &out))
           .ok()) {
    return s;
  }
  out.client_inv_ms = inv_timer.ElapsedMillis();
  return out;
}

}  // namespace

Result<VerifiedResults> Client::VerifyImpl(
    const std::vector<std::vector<float>>& features, size_t k,
    const QueryVO& vo) const {
  Stopwatch bovw_timer;
  VerifiedBovw bovw;
  Status s = CheckBovw(params_, features, vo.thresholds_sq, vo.reveal_section,
                       vo.tree_vos, /*leaves_bind_lists=*/!params_.split_root,
                       &bovw);
  if (!s.ok()) return s;
  if (params_.split_root) {
    const double bovw_ms = bovw_timer.ElapsedMillis();
    Result<VerifiedResults> out = VerifySplitInverted(params_, bovw, k, vo);
    if (out.ok()) out->client_bovw_ms = bovw_ms;
    return out;
  }
  if (!vo.list_proof.empty()) {
    return Result<VerifiedResults>::Error(
        "client: list-tree proof in a single-root VO");
  }
  VerifiedResults out;
  crypto::RsaVerifier verifier(params_.public_key);
  out.root_digest = bovw.forest_root;
  if (!verifier.Verify(out.root_digest, params_.root_signature)) {
    return Result<VerifiedResults>::Error(
        "client: ADS root signature verification failed");
  }
  out.client_bovw_ms = bovw_timer.ElapsedMillis();

  // ---- Step 4: inverted-index VO ----
  Stopwatch inv_timer;
  ClientMetrics& met = ClientMetrics::Get();
  obs::ScopedTimer inv_verify_timer(met.inv_verify_us);
  invindex::InvVerifyResult inv;
  s = CheckInverted(params_.config, bovw.query_bovw, k, vo.inv_vo, vo.results,
                    &inv);
  if (!s.ok()) return s;

  // Cross-check the reconstructed list digests against the MRKD-anchored
  // ones. Every support cluster is an assigned cluster, hence a candidate,
  // hence present in some revealed leaf.
  for (const auto& [c, digest] : inv.list_digests) {
    const uint32_t e = bovw.commitments.Find(c);
    if (e == mrkd::CommitmentTable::kNotFound ||
        !bovw.list_digests[e].has_value()) {
      return Result<VerifiedResults>::Error(
          "client: support cluster not authenticated by any MRKD leaf");
    }
    if (*bovw.list_digests[e] != digest) {
      return Result<VerifiedResults>::Error(
          "client: inverted-list digest mismatch (tampered posting data)");
    }
  }

  inv_verify_timer.Stop();

  // ---- Step 5: image payload signatures ----
  if (!(s = CheckImages(params_.config, verifier, vo.results, inv, &out))
           .ok()) {
    return s;
  }
  out.client_inv_ms = inv_timer.ElapsedMillis();
  return out;
}

Result<VerifiedBovw> Client::VerifyBovwSection(
    const std::vector<std::vector<float>>& features,
    const BovwSection& section) const {
  VerifiedBovw out;
  Status s = CheckBovw(params_, features, section.thresholds_sq,
                       section.reveal_section, section.tree_vos,
                       /*leaves_bind_lists=*/false, &out);
  if (!s.ok()) return s;
  return out;
}

Result<VerifiedResults> Client::VerifyEntry(const VerifiedBovw& bovw, size_t k,
                                            const QueryVO& entry) const {
  if (entry.has_bovw_section()) {
    return Result<VerifiedResults>::Error(
        "client: entry carries its own BoVW section");
  }
  return VerifySplitInverted(params_, bovw, k, entry);
}

}  // namespace imageproof::core
