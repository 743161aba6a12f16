// The deployment under test: seeded inputs, and one serving stack per
// workload (owner build -> persisted epoch -> reopened package -> engines ->
// loopback NetServer), set up exactly as an operator would.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ann/points.h"
#include "bovw/bovw.h"
#include "common/random.h"
#include "core/config.h"
#include "core/query_engine.h"
#include "net/server.h"
#include "shard/coordinator.h"
#include "workload/synthetic.h"

namespace perfbench {

using namespace imageproof;

enum class Workload { kColdUniform, kHotZipf, kUpdateMixed, kSharded4 };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

// Every size the benchmark uses. Default() is the measured configuration;
// Tiny() is for the smoke test only.
struct Spec {
  size_t images = 2000;
  size_t clusters = 4096;
  size_t dims = 64;
  size_t features = 30;  // descriptors per query
  size_t k = 10;
  size_t payload_bytes = 4096;
  int rsa_bits = 512;
  uint32_t shards = 4;
  // Closed-loop clients. Enough to keep every core of a 4-core machine
  // busy: with cores idling between requests, wake-up jitter on a shared
  // virtual machine made the run-to-run spread of p50 two to three times
  // larger (0.13 against 0.06 at 2 against 6 clients).
  unsigned connections = 6;        // single-deployment workloads
  unsigned shard_connections = 4;  // sharded_4: each verifies 4 shard proofs
  unsigned engine_workers = 2;     // per engine (sharded_4: 1 per shard)
  size_t cache_capacity = 128;     // entries; holds the whole hot_zipf pool
  size_t zipf_pool = 64;
  double zipf_s = 1.0;
  double update_hz = 0.5;  // open-loop owner rate on update_mixed
  size_t retain_epochs = 2;
  int setup_repeats = 3;
  size_t check_sample = 4;    // served-vs-reference correctness sample
  size_t replay_queries = 12;  // traced per-layer replay sample
  size_t replay_updates = 2;

  static Spec Default() { return Spec{}; }
  unsigned Connections(Workload w) const {
    return w == Workload::kSharded4 ? shard_connections : connections;
  }
  static Spec Tiny();
  core::Config DeploymentConfig() const;
};

// The collection (corpus, codebook, payloads), the owner's key and the set
// of popular queries (the hot_zipf pool) are the same in every run: runs
// with different seeds differ in their traffic, not in the deployment they
// measure. A seed-dependent pool moved hot_zipf's bytes per query by 7%
// between seeds, because a few hot queries carry most of its traffic.
inline constexpr uint64_t kCollectionSeed = 1;
inline constexpr uint64_t kOwnerKeySeed = 3;

// Inputs shared by every set-up in a run. `seed` drives every query stream:
// the fresh queries and the order of hot_zipf's draws from the pool.
struct Inputs {
  uint64_t seed = 0;
  ann::PointSet codebook;
  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus;
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  std::unique_ptr<workload::ZipfQueryMix> mix;  // hot_zipf pool
  uint64_t digest = 0;  // fingerprint of corpus + codebook + first queries
};

Inputs MakeInputs(const Spec& spec, uint64_t seed);

// A query never issued before in this run: `stream` separates clients and
// phases, `index` counts within a stream.
std::vector<std::vector<float>> FreshQuery(const Spec& spec,
                                           const Inputs& in, uint64_t stream,
                                           uint64_t index);

// The queries one client sends, in order: fresh queries, or on hot_zipf
// Zipf draws from the pool. `stream` separates clients and phases.
class QueryStream {
 public:
  QueryStream(Workload w, const Spec& spec, const Inputs& in, uint64_t stream);
  std::vector<std::vector<float>> Next();

 private:
  bool hot_;
  const Spec& spec_;
  const Inputs& in_;
  uint64_t stream_;
  uint64_t index_ = 0;
  Rng rng_;
};

// Visual words of an image the owner adds during a run: those of a seeded
// corpus image, so inserts look like the rest of the collection.
const bovw::BovwVector& NewImageWords(const Inputs& in, bovw::ImageId id);

struct SetupTimes {
  double build_s = 0;    // BuildDeployment / ShardPlanner::Build
  double persist_s = 0;  // WriteEpoch + CURRENT (or the sharded layout)
  double open_s = 0;     // OpenCurrent (or OpenShardedDeployment)
  double total_s = 0;    // through server start: first query can be sent
};

// One serving stack. Single-deployment workloads serve from `engine`;
// sharded_4 serves composite queries through `coordinator`, whose backend
// engines are reachable through `shard_backends`. `server` fronts either.
struct Stack {
  Workload workload = Workload::kColdUniform;
  std::string dir;  // persisted epochs (removed with the stack)
  core::PublicParams client_params;  // what a client trusts
  crypto::RsaPrivateKey owner_key;
  std::unique_ptr<core::QueryEngine> engine;
  std::vector<shard::LocalShardBackend*> shard_backends;  // owned below
  std::unique_ptr<shard::Coordinator> coordinator;
  std::unique_ptr<net::NetServer> server;
  SetupTimes times;

  // The engine that answers plain (non-composite) query frames.
  core::QueryEngine& front_engine() {
    return engine ? *engine : shard_backends[0]->engine();
  }

  ~Stack();
};

// Builds, persists, reopens and starts the stack for `w` under `dir`.
// Returns null (with a message on stderr) if any step fails.
std::unique_ptr<Stack> SetUp(Workload w, const Spec& spec, const Inputs& in,
                             const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
