#include "stack.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/stopwatch.h"
#include "core/owner.h"
#include "crypto/hasher.h"
#include "shard/planner.h"
#include "storage/package_store.h"

namespace perfbench {

namespace fs = std::filesystem;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kColdUniform: return "cold_uniform";
    case Workload::kHotZipf: return "hot_zipf";
    case Workload::kUpdateMixed: return "update_mixed";
    case Workload::kSharded4: return "sharded_4";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kColdUniform, Workload::kHotZipf,
                     Workload::kUpdateMixed, Workload::kSharded4}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Spec Spec::Tiny() {
  Spec s;
  s.images = 300;
  s.clusters = 256;
  s.dims = 32;
  s.features = 12;
  s.k = 5;
  s.payload_bytes = 512;
  s.zipf_pool = 16;
  s.update_hz = 4.0;
  s.setup_repeats = 1;
  s.check_sample = 2;
  s.replay_queries = 3;
  s.replay_updates = 1;
  return s;
}

core::Config Spec::DeploymentConfig() const {
  core::Config c = core::Config::ImageProof();  // image signing stays on
  c.rsa_bits = rsa_bits;
  return c;
}

namespace {

uint64_t Fold(uint64_t h, uint64_t v) { return crypto::Mix64(h ^ v) + v; }

uint64_t FoldFloats(uint64_t h, const float* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &p[i], sizeof(bits));
    h = Fold(h, bits);
  }
  return h;
}

}  // namespace

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  in.seed = seed;
  workload::CorpusParams cp;
  cp.num_images = spec.images;
  cp.num_clusters = spec.clusters;
  cp.seed = kCollectionSeed;
  in.corpus = workload::GenerateCorpus(cp);
  for (const auto& [id, v] : in.corpus) {
    in.blobs[id] = workload::GenerateImageBlob(id, spec.payload_bytes);
  }
  workload::CodebookParams cbp;
  cbp.num_clusters = spec.clusters;
  cbp.dims = spec.dims;
  cbp.seed = kCollectionSeed + 1;
  in.codebook = workload::GenerateCodebook(cbp);
  workload::QueryMixParams mp;
  mp.pool_size = spec.zipf_pool;
  mp.num_features = spec.features;
  mp.zipf_s = spec.zipf_s;
  mp.seed = kCollectionSeed + 2;
  in.mix = std::make_unique<workload::ZipfQueryMix>(in.codebook, in.corpus, mp);

  uint64_t h = seed;
  for (const auto& [id, v] : in.corpus) {
    h = Fold(h, id);
    for (const auto& [c, f] : v.entries) h = Fold(Fold(h, c), f);
  }
  h = FoldFloats(h, in.codebook.row(0), spec.dims);
  for (const auto& f : FreshQuery(spec, in, 0, 0)) {
    h = FoldFloats(h, f.data(), f.size());
  }
  for (const auto& f : in.mix->query(0)) h = FoldFloats(h, f.data(), f.size());
  in.digest = h;
  return in;
}

std::vector<std::vector<float>> FreshQuery(const Spec& spec,
                                           const Inputs& in, uint64_t stream,
                                           uint64_t index) {
  const uint64_t h =
      crypto::Mix64(in.seed ^ crypto::Mix64(stream * 0x9E3779B97F4A7C15ULL +
                                            index + 1));
  const bovw::BovwVector& source = in.corpus[h % in.corpus.size()].second;
  // Descriptors near the source image's words (sigma 0.25 against a
  // cluster spread of 10) plus 20% background words: a photo of something
  // in the collection, as the repository's other serving benches model it.
  return workload::FeaturesFromBovw(in.codebook, source, spec.features, 0.25,
                                    0.2, h);
}

QueryStream::QueryStream(Workload w, const Spec& spec, const Inputs& in,
                         uint64_t stream)
    : hot_(w == Workload::kHotZipf),
      spec_(spec),
      in_(in),
      stream_(stream),
      rng_(crypto::Mix64(in.seed ^ (stream + 1))) {}

std::vector<std::vector<float>> QueryStream::Next() {
  if (hot_) return in_.mix->query(in_.mix->Draw(rng_));
  return FreshQuery(spec_, in_, stream_, index_++);
}

const bovw::BovwVector& NewImageWords(const Inputs& in, bovw::ImageId id) {
  return in.corpus[crypto::Mix64(in.seed ^ id) % in.corpus.size()].second;
}

Stack::~Stack() {
  if (server) server->Stop();
  server.reset();
  coordinator.reset();
  engine.reset();
  std::error_code ec;
  if (!dir.empty()) fs::remove_all(dir, ec);
}

namespace {

bool Check(const Status& s, const char* what) {
  if (!s.ok()) std::fprintf(stderr, "perfbench: %s: %s\n", what, s.message().c_str());
  return s.ok();
}

core::EngineOptions ServingOptions(const Spec& spec, unsigned workers) {
  core::EngineOptions eo;
  eo.num_workers = workers;
  eo.queue_capacity = 64;
  eo.cache_capacity = spec.cache_capacity;
  return eo;
}

}  // namespace

std::unique_ptr<Stack> SetUp(Workload w, const Spec& spec, const Inputs& in,
                             const std::string& dir) {
  // Private copies of the inputs are made before the clock starts: the
  // owner's build consumes them.
  ann::PointSet codebook = in.codebook;
  auto corpus = in.corpus;
  auto blobs = in.blobs;
  auto st = std::make_unique<Stack>();
  st->workload = w;
  st->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return nullptr;
  }
  const core::Config config = spec.DeploymentConfig();

  Stopwatch total;
  Stopwatch step;
  if (w != Workload::kSharded4) {
    core::OwnerOutput owner =
        core::BuildDeployment(config, std::move(codebook), std::move(corpus),
                              std::move(blobs), kOwnerKeySeed);
    st->times.build_s = step.ElapsedSeconds();
    step.Reset();
    auto written = storage::PackageStore::WriteEpoch(dir, 0, *owner.package);
    if (!Check(written.status(), "write epoch") ||
        !Check(storage::PackageStore::SetCurrentEpoch(dir, 0), "set CURRENT")) {
      return nullptr;
    }
    st->times.persist_s = step.ElapsedSeconds();
    st->client_params = owner.public_params;
    st->owner_key = owner.private_key;
    owner.package.reset();  // from here on the served package is the file

    step.Reset();
    storage::OpenOptions oo;
    oo.params = &st->client_params;
    uint64_t epoch = 0;
    auto pkg = storage::PackageStore::OpenCurrent(dir, oo, &epoch);
    if (!Check(pkg.status(), "open CURRENT")) return nullptr;
    st->times.open_s = step.ElapsedSeconds();

    core::EngineOptions eo = ServingOptions(spec, spec.engine_workers);
    eo.initial_version = epoch;
    if (w == Workload::kUpdateMixed) {
      eo.persist_dir = dir;
      eo.retain_epochs = spec.retain_epochs;
    }
    st->engine = std::make_unique<core::QueryEngine>(
        std::shared_ptr<const core::SpPackage>(std::move(pkg.value())),
        st->client_params, eo);
    st->server = std::make_unique<net::NetServer>(st->engine.get());
  } else {
    shard::ShardedDeployment dep = shard::ShardPlanner::Build(
        config, codebook, corpus, blobs, spec.shards, kOwnerKeySeed);
    st->times.build_s = step.ElapsedSeconds();
    step.Reset();
    if (!Check(shard::WriteShardedDeployment(dir, dep), "write shards")) {
      return nullptr;
    }
    st->times.persist_s = step.ElapsedSeconds();
    st->client_params = dep.shards[0].public_params;
    st->owner_key = dep.keys.private_key;
    dep = shard::ShardedDeployment();

    step.Reset();
    auto opened = shard::OpenShardedDeployment(dir, st->client_params);
    if (!Check(opened.status(), "open shards")) return nullptr;
    st->times.open_s = step.ElapsedSeconds();

    std::vector<std::unique_ptr<shard::ShardBackend>> backends;
    for (shard::OpenedShard& s : opened->shards) {
      core::EngineOptions eo = ServingOptions(spec, 1);
      eo.initial_version = s.epoch;
      auto backend = std::make_unique<shard::LocalShardBackend>(
          std::shared_ptr<const core::SpPackage>(std::move(s.package)),
          s.params, st->owner_key, eo);
      st->shard_backends.push_back(backend.get());
      backends.push_back(std::move(backend));
    }
    shard::CoordinatorOptions co;
    co.fanout_threads = spec.shards;
    co.serve_threads = spec.Connections(w);
    st->coordinator = std::make_unique<shard::Coordinator>(
        std::move(backends), opened->manifest, st->owner_key, co);
    st->server =
        std::make_unique<net::NetServer>(&st->shard_backends[0]->engine());
    shard::Coordinator* coord = st->coordinator.get();
    st->server->EnableComposite(
        [coord](std::vector<std::vector<float>> f, size_t k, bool compress,
                uint32_t deadline_ms, std::function<void(Result<Bytes>)> done) {
          coord->QueryAsync(std::move(f), k, compress, deadline_ms,
                            std::move(done));
        });
  }
  if (!Check(st->server->Start(), "server start")) return nullptr;
  st->times.total_s = total.ElapsedSeconds();
  return st;
}

}  // namespace perfbench
