#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/stopwatch.h"
#include "core/client.h"
#include "core/server.h"
#include "core/update.h"
#include "crypto/hasher.h"
#include "crypto/rsa.h"
#include "crypto/sha3.h"
#include "invindex/search.h"
#include "invindex/verify.h"
#include "load.h"
#include "mrkd/search.h"
#include "net/client.h"
#include "shard/composite.h"
#include "shard/composite_client.h"
#include "shard/planner.h"
#include "storage/package_store.h"
#include "storage/serializer.h"

namespace perfbench {

namespace {

using Query = std::vector<std::vector<float>>;

bool Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: replay: %s\n", what.c_str());
  return false;
}

// Per-sample values of each metric, reduced to one number when reported.
struct Samples {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  double median() const { return Median(v); }
  double mean() const { return Mean(v); }
};

std::vector<Query> ReplaySample(Stack& st, const Spec& spec, const Inputs& in) {
  std::vector<Query> sample;
  QueryStream queries(st.workload, spec, in, kReplayStream);
  for (size_t i = 0; i < spec.replay_queries; ++i) sample.push_back(queries.Next());
  return sample;
}

// An untimed first query for engines built for the replay, so the sample
// does not pay their one-off scratch allocation.
Query WarmQuery(const Spec& spec, const Inputs& in) {
  return FreshQuery(spec, in, kReplayStream + 1, 0);
}

// The ServiceProvider's Step 3: each descriptor goes to its exact nearest
// candidate cluster (ties to the lower id), counted into the query's BoVW.
bovw::BovwVector AssignToCandidates(
    const core::SpPackage& pkg, const std::vector<const float*>& queries,
    const std::vector<std::set<mrkd::ClusterId>>& candidates) {
  std::vector<bovw::ClusterId> assignment(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    double best = -1;
    for (mrkd::ClusterId c : candidates[i]) {
      double d = ann::SquaredL2(queries[i], pkg.codebook.row(c), pkg.codebook.dims());
      if (best < 0 || d < best || (d == best && c < assignment[i])) {
        best = d;
        assignment[i] = c;
      }
    }
  }
  return bovw::CountAssignments(assignment);
}

// Query path: wire, engine, SP stages, VO codec, client stages.
bool ReplayQueries(Stack& st, const Spec& spec, const Inputs& in,
                   const std::vector<Query>& sample, MetricSet* out) {
  core::QueryEngine& front = st.front_engine();
  auto client = net::NetClient::Connect("127.0.0.1", st.server->port(),
                                        st.client_params);
  if (!client.ok()) return Fail("connect: " + client.status().message());
  const std::shared_ptr<const core::Snapshot> snap = front.CurrentSnapshot();
  const core::SpPackage& pkg = *snap->package;
  if (pkg.inv_index == nullptr) return Fail("deployment has no inverted index");
  // Cache misses on the served path are replayed on an engine without a
  // cache over the same snapshot: the served engine would answer the
  // replay from the entry the relay just filled.
  core::EngineOptions cold_opts;
  cold_opts.num_workers = 1;
  cold_opts.queue_capacity = 8;
  core::QueryEngine cold_engine(snap->package, snap->params, cold_opts);
  if (!cold_engine.Submit(WarmQuery(spec, in), spec.k).get().ok()) {
    return Fail("replay engine warm-up");
  }
  core::ServiceProvider sp(&pkg);

  Samples rtt, frame_kb, serve, net_self, sp_query, sp_self, sp_hashes, akm,
      mrkd_ms, share, mrkd_kb, inv_ms, popped, inv_kb, ser, deser, verify,
      inv_verify, sig_verify, client_self, client_hashes;
  for (const Query& q : sample) {
    std::vector<const float*> qp;
    for (const auto& f : q) qp.push_back(f.data());

    const uint64_t hits_before = front.Stats().cache_hits;
    Stopwatch t;
    auto relay = client->QueryForRelay(q, spec.k, kDeadlineMs);
    rtt.Add(t.ElapsedMillis());
    if (!relay.ok()) return Fail("relay: " + relay.status().message());
    const bool hit = front.Stats().cache_hits > hits_before;
    frame_kb.Add((net::kFrameHeaderBytes + net::EncodeResponse(*relay).size()) /
                 1024.0);

    core::QueryEngine& engine = hit ? front : cold_engine;
    t.Reset();
    core::EngineResponse er = engine.Submit(q, spec.k).get();
    serve.Add(t.ElapsedMillis());
    net_self.Add(rtt.v.back() - serve.v.back());
    if (!er.ok()) return Fail("engine: " + er.status.message());
    if (er.response.vo.Serialize() != relay->vo_bytes) {
      return Fail("engine VO differs from the served VO");
    }

    core::QueryVO served;
    t.Reset();
    Status ds = core::QueryVO::Deserialize(relay->vo_bytes, &served);
    deser.Add(t.ElapsedMillis());
    if (!ds.ok()) return Fail("deserialize: " + ds.message());

    uint64_t h0 = crypto::HashInvocations();
    core::QueryResponse resp;
    t.Reset();
    Status qs = sp.Query(q, spec.k, {}, {}, core::ServeOptions(), &resp);
    sp_query.Add(t.ElapsedMillis());
    sp_hashes.Add(static_cast<double>(crypto::HashInvocations() - h0));
    if (!qs.ok()) return Fail("sp query: " + qs.message());
    t.Reset();
    Bytes cold_bytes = resp.vo.Serialize();
    ser.Add(t.ElapsedMillis());
    if (cold_bytes != relay->vo_bytes) {
      return Fail("cold ServiceProvider::Query VO differs from the served VO");
    }

    t.Reset();
    for (size_t i = 0; i < qp.size(); ++i) {
      if (pkg.forest->ApproxNearest(qp[i]).dist_sq != served.thresholds_sq[i]) {
        return Fail("AKM threshold differs from the served VO");
      }
    }
    akm.Add(t.ElapsedMillis());

    std::vector<std::set<mrkd::ClusterId>> candidates(qp.size());
    size_t traversed = 0, shared = 0, tree_bytes = 0;
    double mrkd_total = 0;
    for (size_t tr = 0; tr < pkg.mrkd_trees.size(); ++tr) {
      t.Reset();
      mrkd::TreeSearchOutput o =
          mrkd::MrkdSearchShared(*pkg.mrkd_trees[tr], qp, served.thresholds_sq);
      mrkd_total += t.ElapsedMillis();
      if (tr >= served.tree_vos.size() || o.vo != served.tree_vos[tr]) {
        return Fail("MRKD tree VO differs from the served VO");
      }
      traversed += o.stats.traversed_nodes;
      shared += o.stats.shared_nodes;
      tree_bytes += o.vo.size();
      for (size_t i = 0; i < qp.size(); ++i) {
        candidates[i].insert(o.candidates[i].begin(), o.candidates[i].end());
      }
    }
    mrkd_ms.Add(mrkd_total);
    share.Add(traversed == 0 ? 0.0 : static_cast<double>(shared) / traversed);
    mrkd_kb.Add(tree_bytes / 1024.0);

    const bovw::BovwVector query_bovw = AssignToCandidates(pkg, qp, candidates);
    invindex::InvSearchParams ip;
    ip.k = spec.k;
    ip.check_batch = pkg.config.check_batch;
    t.Reset();
    invindex::InvSearchResult inv = invindex::InvSearch(*pkg.inv_index, query_bovw, ip);
    inv_ms.Add(t.ElapsedMillis());
    if (inv.vo != served.inv_vo) {
      return Fail("inverted-index VO differs from the served VO");
    }
    popped.Add(inv.stats.PoppedFraction());
    inv_kb.Add(inv.vo.size() / 1024.0);
    sp_self.Add(sp_query.v.back() - akm.v.back() - mrkd_total - inv_ms.v.back());

    core::PublicParams vp = st.client_params;
    vp.root_signature = relay->root_signature;
    h0 = crypto::HashInvocations();
    t.Reset();
    auto verified = core::Client(vp).Verify(q, spec.k, served);
    verify.Add(t.ElapsedMillis());
    client_hashes.Add(static_cast<double>(crypto::HashInvocations() - h0));
    if (!verified.ok()) return Fail("verify: " + verified.status().message());

    std::vector<bovw::ImageId> claimed;
    for (const core::ResultImage& ri : served.results) claimed.push_back(ri.id);
    invindex::InvVerifyResult ivr;
    t.Reset();
    Status is = invindex::VerifyInvVo(served.inv_vo, query_bovw, claimed, spec.k,
                                      pkg.config.with_filters, &ivr);
    inv_verify.Add(t.ElapsedMillis());
    if (!is.ok()) return Fail("inverted-index verify: " + is.message());

    // Root signature plus one Eq. (15) signature per result image.
    t.Reset();
    bool sigs_ok = crypto::RsaVerify(vp.public_key, verified->root_digest,
                                     vp.root_signature);
    for (const core::ResultImage& ri : served.results) {
      const crypto::Digest image_digest = crypto::DigestBuilder()
                                              .AddU64(ri.id)
                                              .AddDigest(crypto::Sha3(ri.data))
                                              .Finalize();
      sigs_ok = crypto::RsaVerify(vp.public_key, image_digest, ri.signature) && sigs_ok;
    }
    sig_verify.Add(t.ElapsedMillis());
    if (!sigs_ok) return Fail("signature check failed");
    client_self.Add(verify.v.back() - inv_verify.v.back() - sig_verify.v.back());
  }

  out->Add("net.rtt_ms", rtt.median(), "ms");
  out->Add("net.self_ms", net_self.median(), "ms");
  out->Add("net.frame_kb", frame_kb.mean(), "KiB");
  out->Add("core.engine.serve_ms", serve.median(), "ms");
  out->Add("core.sp.query_ms", sp_query.median(), "ms");
  out->Add("core.sp.self_ms", sp_self.median(), "ms");
  out->Add("crypto.sp_hashes", sp_hashes.mean(), "count");
  out->Add("ann.akm_ms", akm.median(), "ms");
  out->Add("mrkd.search_ms", mrkd_ms.median(), "ms");
  out->Add("mrkd.share_ratio", share.mean(), "ratio");
  out->Add("mrkd.vo_kb", mrkd_kb.mean(), "KiB");
  out->Add("invindex.search_ms", inv_ms.median(), "ms");
  out->Add("invindex.popped_fraction", popped.mean(), "ratio");
  out->Add("invindex.vo_kb", inv_kb.mean(), "KiB");
  out->Add("core.vo.serialize_ms", ser.median(), "ms");
  out->Add("core.vo.deserialize_ms", deser.median(), "ms");
  out->Add("core.client.verify_ms", verify.median(), "ms");
  out->Add("core.client.inv_verify_ms", inv_verify.median(), "ms");
  out->Add("core.client.sig_verify_ms", sig_verify.median(), "ms");
  out->Add("core.client.self_ms", client_self.median(), "ms");
  out->Add("crypto.client_hashes", client_hashes.mean(), "count");
  out->Add("core.client.verify_over_serve", verify.median() / sp_query.median(),
           "ratio");
  return true;
}

// Shard layer: a coordinator over local backends without result caches.
// sharded_4 replays over its served shard snapshots and manifest and must
// reproduce the served composite bytes; the other workloads replay their
// queries over a 4-way split of their corpus.
bool ReplayShards(Stack& st, const Spec& spec, const Inputs& in,
                  const std::vector<Query>& sample, MetricSet* out) {
  std::vector<std::shared_ptr<const core::SpPackage>> pkgs;
  std::vector<core::PublicParams> params;
  std::vector<uint64_t> versions;
  shard::ShardManifest manifest;
  crypto::RsaPrivateKey key;
  core::PublicParams base;
  if (st.workload == Workload::kSharded4) {
    for (shard::LocalShardBackend* b : st.shard_backends) {
      auto snap = b->engine().CurrentSnapshot();
      pkgs.push_back(snap->package);
      params.push_back(snap->params);
      versions.push_back(snap->version);
    }
    manifest = *st.coordinator->CurrentManifest();
    key = st.owner_key;
    base = st.client_params;
  } else {
    shard::ShardedDeployment dep = shard::ShardPlanner::Build(
        spec.DeploymentConfig(), in.codebook, in.corpus, in.blobs, spec.shards,
        kOwnerKeySeed);
    for (core::OwnerOutput& s : dep.shards) {
      pkgs.push_back(std::shared_ptr<const core::SpPackage>(std::move(s.package)));
      params.push_back(s.public_params);
      versions.push_back(0);
    }
    manifest = dep.manifest;
    key = dep.keys.private_key;
    base = dep.shards[0].public_params;
  }
  std::vector<std::unique_ptr<shard::ShardBackend>> owned;
  std::vector<shard::ShardBackend*> backends;
  for (size_t s = 0; s < pkgs.size(); ++s) {
    core::EngineOptions eo;
    eo.num_workers = 1;
    eo.queue_capacity = 8;
    eo.initial_version = versions[s];
    owned.push_back(std::make_unique<shard::LocalShardBackend>(pkgs[s], params[s], key, eo));
    backends.push_back(owned.back().get());
  }
  shard::CoordinatorOptions co;
  co.fanout_threads = spec.shards;
  co.serve_threads = 1;  // the replay is serial
  shard::Coordinator coord(std::move(owned), manifest, key, co);
  shard::CompositeClient verifier(base);
  if (!coord.Query(WarmQuery(spec, in), spec.k, false, kDeadlineMs).ok()) {
    return Fail("replay coordinator warm-up");
  }

  std::unique_ptr<net::NetClient> client;
  if (st.workload == Workload::kSharded4) {
    auto c = net::NetClient::Connect("127.0.0.1", st.server->port(), st.client_params);
    if (!c.ok()) return Fail("connect: " + c.status().message());
    client = std::make_unique<net::NetClient>(std::move(*c));
  }

  Samples coord_ms, backend_max, backend_sum, merge_self, verify_ms, bovw_kb,
      inv_kb, proofs;
  for (const Query& q : sample) {
    std::vector<Bytes> backend_vos;
    double max_ms = 0, sum_ms = 0;
    for (shard::ShardBackend* b : backends) {
      Stopwatch t;
      auto r = b->Query(q, spec.k, false, kDeadlineMs);
      const double ms = t.ElapsedMillis();
      if (!r.ok()) return Fail("shard backend: " + r.status().message());
      backend_vos.push_back(std::move(r->vo_bytes));
      max_ms = std::max(max_ms, ms);
      sum_ms += ms;
    }
    Stopwatch t;
    auto composite = coord.Query(q, spec.k, false, kDeadlineMs);
    coord_ms.Add(t.ElapsedMillis());
    if (!composite.ok()) return Fail("coordinator: " + composite.status().message());
    backend_max.Add(max_ms);
    backend_sum.Add(sum_ms);
    merge_self.Add(coord_ms.v.back() - max_ms);
    if (client) {
      auto served = client->QueryComposite(q, spec.k, kDeadlineMs);
      if (!served.ok()) return Fail("served composite: " + served.status().message());
      if (*served != *composite) {
        return Fail("replayed composite differs from the served composite");
      }
    }
    t.Reset();
    auto v = verifier.VerifyComposite(q, spec.k, *composite);
    verify_ms.Add(t.ElapsedMillis());
    if (!v.ok()) return Fail("verify composite: " + v.status().message());

    shard::CompositeVO cvo;
    if (Status s = shard::CompositeVO::Deserialize(*composite, &cvo); !s.ok()) {
      return Fail("composite decode: " + s.message());
    }
    if (cvo.entries.size() != backend_vos.size()) return Fail("composite entry count");
    size_t bovw_bytes = 0, inv_bytes = 0, mrkd_proofs = 0;
    for (size_t s = 0; s < cvo.entries.size(); ++s) {
      if (cvo.entries[s].vo_bytes != backend_vos[s]) {
        return Fail("composite section differs from the backend's serve");
      }
      core::QueryVO vo;
      if (Status ds = core::QueryVO::Deserialize(cvo.entries[s].vo_bytes, &vo); !ds.ok()) {
        return Fail("shard VO decode: " + ds.message());
      }
      bovw_bytes += vo.reveal_section.size() + vo.thresholds_sq.size() * sizeof(double);
      for (const Bytes& tv : vo.tree_vos) bovw_bytes += tv.size();
      inv_bytes += vo.inv_vo.size();
      if (!vo.tree_vos.empty()) ++mrkd_proofs;
    }
    bovw_kb.Add(bovw_bytes / 1024.0);
    inv_kb.Add(inv_bytes / 1024.0);
    proofs.Add(static_cast<double>(mrkd_proofs));
  }
  out->Add("shard.coord_ms", coord_ms.median(), "ms");
  out->Add("shard.backend_max_ms", backend_max.median(), "ms");
  out->Add("shard.backend_sum_ms", backend_sum.median(), "ms");
  out->Add("shard.merge_self_ms", merge_self.median(), "ms");
  out->Add("shard.verify_composite_ms", verify_ms.median(), "ms");
  out->Add("shard.bovw_kb", bovw_kb.mean(), "KiB");
  out->Add("shard.inv_kb", inv_kb.mean(), "KiB");
  out->Add("shard.mrkd_proofs", proofs.mean(), "count");
  return true;
}

// Owner update layers. The engine update runs on the serving engine (with
// its persist directory on update_mixed); clone, apply, sign, write and
// open are replayed on the pre-update snapshot. Each insert is deleted
// again so the corpus size stays flat.
bool ReplayUpdates(Stack& st, const Spec& spec, const Inputs& in,
                   const std::string& scratch_dir, MetricSet* out) {
  namespace fs = std::filesystem;
  core::QueryEngine& engine = st.front_engine();
  std::error_code ec;
  fs::create_directories(scratch_dir, ec);
  Samples engine_ms, clone_ms, apply_ms, sign_ms, write_ms, write_kb, open_ms, amp;
  for (size_t r = 0; r < spec.replay_updates; ++r) {
    // Ids stay in shard 0 under id-mod placement, the front engine's shard.
    const bovw::ImageId id = (spec.images + 2000000 + r) * spec.shards;
    const bovw::BovwVector& words = NewImageWords(in, id);
    const Bytes blob = workload::GenerateImageBlob(id, spec.payload_bytes);
    const std::shared_ptr<const core::Snapshot> snap = engine.CurrentSnapshot();

    const uint64_t h0 = crypto::HashInvocations();
    Stopwatch t;
    auto applied = engine.InsertImage(st.owner_key, id, words, blob);
    engine_ms.Add(t.ElapsedMillis());
    const uint64_t engine_hashes = crypto::HashInvocations() - h0;
    if (!applied.ok()) return Fail("engine insert: " + applied.status().message());
    amp.Add(static_cast<double>(engine_hashes) /
            static_cast<double>(std::max<uint64_t>(1, applied->hash_invocations)));

    t.Reset();
    auto clone = storage::DeserializeSpPackage(storage::SerializeSpPackage(*snap->package));
    clone_ms.Add(t.ElapsedMillis());
    if (!clone.ok()) return Fail("clone: " + clone.status().message());
    core::PublicParams params = snap->params;
    t.Reset();
    auto raw = core::InsertImage(clone->get(), st.owner_key, &params, id, words, blob);
    apply_ms.Add(t.ElapsedMillis());
    if (!raw.ok()) return Fail("apply: " + raw.status().message());
    t.Reset();
    const Bytes signature = crypto::RsaSign(st.owner_key, (*clone)->RootDigest());
    sign_ms.Add(t.ElapsedMillis());
    if (signature != params.root_signature) return Fail("re-sign differs");

    t.Reset();
    auto path = storage::PackageStore::WriteEpoch(scratch_dir, r + 1, **clone);
    write_ms.Add(t.ElapsedMillis());
    if (!path.ok()) return Fail("write epoch: " + path.status().message());
    write_kb.Add(static_cast<double>(fs::file_size(*path, ec)) / 1024.0);
    storage::OpenOptions oo;
    oo.params = &params;
    t.Reset();
    auto reopened = storage::PackageStore::Open(*path, oo);
    open_ms.Add(t.ElapsedMillis());
    if (!reopened.ok()) return Fail("open epoch: " + reopened.status().message());
    if ((*reopened)->RootDigest() != engine.CurrentSnapshot()->package->RootDigest()) {
      return Fail("replayed update root differs from the engine's");
    }
    fs::remove(*path, ec);

    auto undo = engine.DeleteImage(st.owner_key, id);
    if (!undo.ok()) return Fail("engine delete: " + undo.status().message());
  }
  out->Add("core.update.engine_ms", engine_ms.median(), "ms");
  out->Add("core.update.clone_ms", clone_ms.median(), "ms");
  out->Add("core.update.apply_ms", apply_ms.median(), "ms");
  out->Add("crypto.sign_ms", sign_ms.median(), "ms");
  out->Add("core.update.hash_amplification", amp.mean(), "ratio");
  out->Add("storage.write_ms", write_ms.median(), "ms");
  out->Add("storage.write_kb", write_kb.mean(), "KiB");
  out->Add("storage.open_ms", open_ms.median(), "ms");
  return true;
}

}  // namespace

bool ReplayLayers(Stack& st, const Spec& spec, const Inputs& in,
                  const std::string& scratch_dir, MetricSet* out) {
  const std::vector<Query> sample = ReplaySample(st, spec, in);
  return ReplayQueries(st, spec, in, sample, out) &&
         ReplayShards(st, spec, in, sample, out) &&
         ReplayUpdates(st, spec, in, scratch_dir, out);
}

}  // namespace perfbench
