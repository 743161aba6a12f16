#include "shard/coordinator.h"

#include <utility>

namespace imageproof::shard {

namespace {

Status AnnotateShard(uint32_t shard_id, const Status& s) {
  return Status::WithCode(
      s.code(), "shard " + std::to_string(shard_id) + ": " + s.message());
}

}  // namespace

// --- LocalShardBackend ------------------------------------------------------

LocalShardBackend::LocalShardBackend(
    std::shared_ptr<const core::SpPackage> package, core::PublicParams params,
    crypto::RsaPrivateKey owner_key, core::EngineOptions options)
    : owner_key_(std::move(owner_key)),
      engine_(std::move(package), std::move(params), std::move(options)) {}

Result<ShardBovwProof> LocalShardBackend::Encode(
    const std::vector<std::vector<float>>& features, uint32_t deadline_ms,
    bool with_proof) {
  // Outside the engine's queue: the encoding needs no inverted-list state,
  // only the snapshot's codebook forest and proof memo.
  std::shared_ptr<const core::Snapshot> snap = engine_.CurrentSnapshot();
  core::QueryControl control =
      deadline_ms == 0
          ? core::QueryControl()
          : core::QueryControl(core::QueryControl::Clock::now() +
                               std::chrono::milliseconds(deadline_ms));
  core::ServeOptions serve;
  serve.memo = snap->memo.get();
  core::QueryResponse resp;
  Status s = core::ServiceProvider(snap->package.get())
                 .EncodeBovw(features, {}, control, serve, with_proof, &resp);
  if (!s.ok()) return s;
  ShardBovwProof out;
  out.section = resp.vo.TakeBovwSection();
  out.bovw = std::move(resp.query_bovw);
  return out;
}

Result<ShardQueryResult> LocalShardBackend::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    bool compress_vo, uint32_t deadline_ms) {
  Result<ShardBovwProof> own = Encode(features, deadline_ms, false);
  if (!own.ok()) return own.status();
  return Serve(own->bovw, k, compress_vo, deadline_ms);
}

Result<ShardBovwProof> LocalShardBackend::ProveBovw(
    const std::vector<std::vector<float>>& features, size_t, bool,
    uint32_t deadline_ms) {
  return Encode(features, deadline_ms, true);
}

Result<ShardQueryResult> LocalShardBackend::QueryProven(
    const std::vector<std::vector<float>>& features,
    const bovw::BovwVector& proven, size_t k, bool compress_vo,
    uint32_t deadline_ms) {
  // An empty vector is a prover that could not report one (remote).
  if (proven.empty()) return Query(features, k, compress_vo, deadline_ms);
  return Serve(proven, k, compress_vo, deadline_ms);
}

Result<ShardQueryResult> LocalShardBackend::Serve(const bovw::BovwVector& bovw,
                                                  size_t k, bool compress_vo,
                                                  uint32_t deadline_ms) {
  core::SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds(deadline_ms);
  opts.compress_vo = compress_vo;
  opts.settle_exact_topk = true;
  opts.proven_bovw = std::make_shared<const bovw::BovwVector>(bovw);
  core::EngineResponse r = engine_.Submit({}, k, std::move(opts)).get();
  if (!r.ok()) return r.status;
  ShardQueryResult out;
  out.snapshot_version = r.snapshot->version;
  out.root_signature = r.snapshot->params.root_signature;
  out.vo_bytes = r.response.vo.Serialize();
  return out;
}

Result<ShardRootInfo> LocalShardBackend::Insert(bovw::ImageId id,
                                                bovw::BovwVector bovw,
                                                Bytes image_data) {
  auto applied = engine_.InsertImage(owner_key_, id, std::move(bovw),
                                     std::move(image_data));
  if (!applied.ok()) return applied.status();
  std::shared_ptr<const core::Snapshot> snap = engine_.CurrentSnapshot();
  ShardRootInfo info;
  info.root = snap->package->RootDigest();
  info.signature = snap->params.root_signature;
  return info;
}

Result<ShardRootInfo> LocalShardBackend::Delete(bovw::ImageId id) {
  auto applied = engine_.DeleteImage(owner_key_, id);
  if (!applied.ok()) return applied.status();
  std::shared_ptr<const core::Snapshot> snap = engine_.CurrentSnapshot();
  ShardRootInfo info;
  info.root = snap->package->RootDigest();
  info.signature = snap->params.root_signature;
  return info;
}

Status LocalShardBackend::Probe() {
  return engine_.stopped() ? Status::Unavailable("shard engine stopped")
                           : Status::Ok();
}

// --- RemoteShardBackend -----------------------------------------------------

RemoteShardBackend::RemoteShardBackend(std::string host, uint16_t port,
                                       core::PublicParams trusted_params,
                                       net::RetryPolicy policy)
    : client_(std::move(host), port, std::move(trusted_params), policy) {}

Result<ShardBovwProof> RemoteShardBackend::ProveBovw(
    const std::vector<std::vector<float>>& features, size_t k,
    bool compress_vo, uint32_t deadline_ms) {
  Result<net::ResponseFrame> resp = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    client_.set_compress_vo(compress_vo);
    return client_.QueryForRelay(features, k, deadline_ms);
  }();
  if (!resp.ok()) return resp.status();
  core::QueryVO vo;
  if (Status s = core::QueryVO::Deserialize(resp->vo_bytes, &vo); !s.ok()) {
    return s;
  }
  ShardBovwProof out;
  out.section = vo.TakeBovwSection();
  ShardQueryResult& entry = out.entry.emplace();
  entry.snapshot_version = resp->snapshot_version;
  entry.root_signature = std::move(resp->root_signature);
  entry.vo_bytes = vo.Serialize();
  return out;
}

Result<ShardQueryResult> RemoteShardBackend::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    bool compress_vo, uint32_t deadline_ms) {
  Result<ShardBovwProof> r = ProveBovw(features, k, compress_vo, deadline_ms);
  if (!r.ok()) return r.status();
  return std::move(*r->entry);
}

Result<ShardQueryResult> RemoteShardBackend::QueryProven(
    const std::vector<std::vector<float>>& features, const bovw::BovwVector&,
    size_t k, bool compress_vo, uint32_t deadline_ms) {
  return Query(features, k, compress_vo, deadline_ms);
}

Result<ShardRootInfo> RemoteShardBackend::Insert(bovw::ImageId, bovw::BovwVector,
                                                 Bytes) {
  return Status::Error(
      "remote shard backend: updates are applied owner-side, not relayed");
}

Result<ShardRootInfo> RemoteShardBackend::Delete(bovw::ImageId) {
  return Status::Error(
      "remote shard backend: updates are applied owner-side, not relayed");
}

Status RemoteShardBackend::Probe() {
  std::lock_guard<std::mutex> lock(mu_);
  return client_.Probe();
}

// --- Coordinator ------------------------------------------------------------

Coordinator::Coordinator(std::vector<std::unique_ptr<ShardBackend>> backends,
                         ShardManifest manifest,
                         crypto::RsaPrivateKey owner_key,
                         CoordinatorOptions options)
    : backends_(std::move(backends)),
      num_shards_(manifest.num_shards),
      owner_key_(std::move(owner_key)),
      options_(options),
      manifest_(std::make_shared<const ShardManifest>(std::move(manifest))),
      fanout_pool_(options.fanout_threads != 0 ? options.fanout_threads
                                               : num_shards_),
      serve_pool_(options.serve_threads) {
  bool complete = num_shards_ != 0 && backends_.size() == num_shards_;
  for (const auto& b : backends_) complete = complete && b != nullptr;
  if (!complete) {
    layout_status_ = Status::Error(
        "coordinator: " + std::to_string(backends_.size()) +
        " backends for a " + std::to_string(num_shards_) + "-shard manifest");
  }
}

Coordinator::~Coordinator() {
  // Outer tasks block on fan-out futures; drain them first so no serve task
  // is left waiting on a pool that is already gone.
  serve_pool_.Shutdown();
  fanout_pool_.Shutdown();
}

std::shared_ptr<const ShardManifest> Coordinator::CurrentManifest() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return manifest_;
}

Result<Bytes> Coordinator::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    bool compress_vo, uint32_t deadline_ms) {
  if (!layout_status_.ok()) return layout_status_;
  const auto fail = [this](uint32_t sid, const Status& s) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.fanout_failures;
    return AnnotateShard(sid, s);
  };

  // One shard proves the BoVW encoding; the proven vector then fans out to
  // every shard, with what is left of the deadline.
  const auto start = std::chrono::steady_clock::now();
  const uint32_t prover =
      next_prover_.fetch_add(1, std::memory_order_relaxed) % num_shards_;
  Result<ShardBovwProof> proof =
      backends_[prover]->ProveBovw(features, k, compress_vo, deadline_ms);
  if (!proof.ok()) return fail(prover, proof.status());
  uint32_t rest_ms = 0;
  if (deadline_ms != 0) {
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    if (spent.count() >= deadline_ms) {
      return fail(prover, Status::DeadlineExceeded(
                              "coordinator: deadline spent proving BoVW"));
    }
    rest_ms = deadline_ms - static_cast<uint32_t>(spent.count());
  }

  std::vector<std::future<Result<ShardQueryResult>>> futures(num_shards_);
  const bovw::BovwVector& vec = proof->bovw;
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    if (sid == prover && proof->entry.has_value()) continue;
    ShardBackend* backend = backends_[sid].get();
    futures[sid] = fanout_pool_.Submit(
        [backend, &features, &vec, k, compress_vo, rest_ms] {
          return backend->QueryProven(features, vec, k, compress_vo, rest_ms);
        });
  }
  // Gather everything before acting on failures: every future must be
  // drained regardless (the tasks borrow `features` and the vector).
  std::vector<Result<ShardQueryResult>> replies;
  replies.reserve(num_shards_);
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    replies.push_back(futures[sid].valid()
                          ? futures[sid].get()
                          : Result<ShardQueryResult>(std::move(*proof->entry)));
  }
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    if (!replies[sid].ok()) return fail(sid, replies[sid].status());
  }

  // Pin the manifest AFTER the fan-out: a shard that epoch-swapped once
  // while we were gathering shows up as this manifest's prev for its slot.
  std::shared_ptr<const ShardManifest> manifest = CurrentManifest();
  CompositeVO vo;
  vo.manifest_bytes = manifest->Serialize();
  vo.bovw = std::move(proof->section);
  vo.entries.resize(num_shards_);
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    ShardQueryResult& reply = *replies[sid];
    const ShardRoots& roots = manifest->shards[sid];
    const bool known = reply.root_signature == roots.current_signature ||
                       (roots.has_prev &&
                        reply.root_signature == roots.prev_signature);
    if (!known) {
      // Two swaps of one shard inside a single fan-out window. Nobody
      // misbehaved; the composite just cannot be assembled consistently.
      // kUnavailable is retryable — crucially NOT a verification failure.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.manifest_races;
      return Status::Unavailable(
          "shard " + std::to_string(sid) +
          ": root swapped twice during fan-out; retry the query");
    }
    CompositeEntry& entry = vo.entries[sid];
    entry.shard_id = sid;
    entry.snapshot_version = reply.snapshot_version;
    entry.root_signature = std::move(reply.root_signature);
    entry.vo_bytes = std::move(reply.vo_bytes);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
  }
  return vo.Serialize();
}

void Coordinator::QueryAsync(std::vector<std::vector<float>> features,
                             size_t k, bool compress_vo, uint32_t deadline_ms,
                             std::function<void(Result<Bytes>)> done) {
  serve_pool_.Submit([this, features = std::move(features), k, compress_vo,
                      deadline_ms, done = std::move(done)]() mutable {
    done(Query(features, k, compress_vo, deadline_ms));
  });
}

Result<uint64_t> Coordinator::PublishRoot(uint32_t shard_id,
                                          const ShardRootInfo& info) {
  std::shared_ptr<const ShardManifest> cur = CurrentManifest();
  auto next = std::make_shared<ShardManifest>(*cur);
  ShardRoots& roots = next->shards[shard_id];
  if (!(info.root == roots.current)) {
    roots.prev = roots.current;
    roots.prev_signature = roots.current_signature;
    roots.has_prev = true;
    roots.current = info.root;
    roots.current_signature = info.signature;
  }
  next->epoch = cur->epoch + 1;
  next->Sign(owner_key_);
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    manifest_ = next;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.updates;
  }
  return next->epoch;
}

Result<uint64_t> Coordinator::RouteUpdate(
    bovw::ImageId id,
    const std::function<Result<ShardRootInfo>(ShardBackend&)>& apply) {
  if (!layout_status_.ok()) return layout_status_;
  std::lock_guard<std::mutex> lock(update_mu_);
  const uint32_t sid = ShardManifest::ShardOf(id, num_shards_);
  Result<ShardRootInfo> info = apply(*backends_[sid]);
  if (!info.ok()) return AnnotateShard(sid, info.status());
  return PublishRoot(sid, *info);
}

Result<uint64_t> Coordinator::Insert(bovw::ImageId id, bovw::BovwVector bovw,
                                     Bytes image_data) {
  return RouteUpdate(id, [&](ShardBackend& b) {
    return b.Insert(id, std::move(bovw), std::move(image_data));
  });
}

Result<uint64_t> Coordinator::Delete(bovw::ImageId id) {
  return RouteUpdate(id, [id](ShardBackend& b) { return b.Delete(id); });
}

Status Coordinator::ProbeAll() {
  if (!layout_status_.ok()) return layout_status_;
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    if (Status s = backends_[sid]->Probe(); !s.ok()) {
      return AnnotateShard(sid, s);
    }
  }
  return Status::Ok();
}

CoordinatorStats Coordinator::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace imageproof::shard
