// Shared helpers for the figure-reproduction benchmarks.
//
// Every fig*.cc binary prints the series of one figure from Section VII of
// the paper as an aligned table: scheme x sweep-value -> SP CPU, client
// CPU, VO size, plus figure-specific extras (% popped postings, shared-node
// ratio). Scales are reduced versus the paper's MirFlickr1M setup (see
// EXPERIMENTS.md); the comparisons between schemes are the reproduction
// target.

#ifndef IMAGEPROOF_BENCH_BENCH_UTIL_H_
#define IMAGEPROOF_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/kernels.h"
#include "common/stopwatch.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "workload/synthetic.h"

namespace imageproof::bench {

struct DeploymentSpec {
  size_t num_images = 10000;
  size_t num_clusters = 4096;
  size_t dims = 64;
  size_t min_distinct = 10;
  size_t max_distinct = 40;
  uint64_t seed = 1;
};

struct Deployment {
  core::OwnerOutput owner;
  std::unique_ptr<core::ServiceProvider> sp;
  std::unique_ptr<core::Client> client;

  Deployment(core::Config config, const DeploymentSpec& spec) {
    config.rsa_bits = 512;
    config.sign_images = false;  // constant per-image cost, off the figures
    workload::CorpusParams cp;
    cp.num_images = spec.num_images;
    cp.num_clusters = spec.num_clusters;
    cp.min_distinct = spec.min_distinct;
    cp.max_distinct = spec.max_distinct;
    cp.seed = spec.seed;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id, 32);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = spec.num_clusters;
    cbp.dims = spec.dims;
    cbp.seed = spec.seed + 1;
    owner = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                  std::move(corpus), std::move(blobs),
                                  spec.seed + 2);
    sp = std::make_unique<core::ServiceProvider>(owner.package.get());
    client = std::make_unique<core::Client>(owner.public_params);
  }
};

// ---------------------------------------------------------------------------
// Machine-readable bench output. Every fig*/abl_* binary accepts
//
//   --json <path>   write a BENCH_<name>.json-style report: the machine
//                   and build it ran on ("context": hw_threads, avx2_active,
//                   compiler, build_type), each printed table row as a
//                   structured record, any named scalars, and the full
//                   process metrics registry (obs/registry.h)
//   --smoke         reduced scales for CI smoke runs (binaries opt in via
//                   SmokeMode(); unused by benches with no smoke variant)
//
// The human-readable tables are unchanged: PrintFigureHeader/PrintRow feed
// the report as a side effect, so instrumented binaries only add an Init()
// call at the top of main and route their exit through Finish().
// ---------------------------------------------------------------------------

// Averaged measurements over several queries.
struct Measurement {
  double sp_bovw_ms = 0, sp_inv_ms = 0;
  double client_bovw_ms = 0, client_inv_ms = 0;
  double bovw_vo_kb = 0, inv_vo_kb = 0;
  double popped_fraction = 0;
  double share_ratio = 0;
  bool verified = true;

  double SpMs() const { return sp_bovw_ms + sp_inv_ms; }
  double ClientMs() const { return client_bovw_ms + client_inv_ms; }
  double VoKb() const { return bovw_vo_kb + inv_vo_kb; }
};

inline Measurement RunQueries(Deployment& d, size_t num_features, size_t k,
                              int num_queries, uint64_t seed = 1000) {
  Measurement m;
  // Queries model a photo of something in the database: descriptors are
  // emitted near the codebook words of a random corpus image (plus 20%
  // background words) with small quantization noise (sigma 0.25 vs cluster
  // spread 10, as real quantizable descriptors have — larger noise blows
  // up the range-search candidate sets unrealistically).
  for (int q = 0; q < num_queries; ++q) {
    const auto& corpus = d.owner.package->corpus;
    const auto& source = corpus[(seed + q) * 2654435761u % corpus.size()].second;
    auto features =
        workload::FeaturesFromBovw(d.owner.package->codebook, source,
                                   num_features, 0.25, 0.2, seed + q);
    core::QueryResponse resp = d.sp->Query(features, k);
    auto verified = d.client->Verify(features, k, resp.vo);
    if (!verified.ok()) {
      std::fprintf(stderr, "bench: verification FAILED: %s\n",
                   verified.status().message().c_str());
      m.verified = false;
    }
    m.sp_bovw_ms += resp.stats.sp_bovw_ms;
    m.sp_inv_ms += resp.stats.sp_inv_ms;
    if (verified.ok()) {
      m.client_bovw_ms += verified->client_bovw_ms;
      m.client_inv_ms += verified->client_inv_ms;
    }
    m.bovw_vo_kb += resp.stats.bovw_vo_bytes / 1024.0;
    m.inv_vo_kb += resp.stats.inv_vo_bytes / 1024.0;
    m.popped_fraction += resp.stats.inv.PoppedFraction();
    m.share_ratio += resp.stats.mrkd.ShareRatio();
  }
  double inv_n = 1.0 / num_queries;
  m.sp_bovw_ms *= inv_n;
  m.sp_inv_ms *= inv_n;
  m.client_bovw_ms *= inv_n;
  m.client_inv_ms *= inv_n;
  m.bovw_vo_kb *= inv_n;
  m.inv_vo_kb *= inv_n;
  m.popped_fraction *= inv_n;
  m.share_ratio *= inv_n;
  return m;
}

class BenchReport {
 public:
  static BenchReport& Global() {
    static BenchReport r;
    return r;
  }

  // Call first thing in main(). Unknown flags abort with usage — a typoed
  // flag silently measuring the wrong thing is worse than an exit.
  void Init(int argc, char** argv, const char* bench_name) {
    name_ = bench_name;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--smoke") == 0) {
        smoke_ = true;
      } else {
        std::fprintf(stderr, "usage: %s [--json <path>] [--smoke]\n", argv[0]);
        std::exit(2);
      }
    }
  }

  bool smoke() const { return smoke_; }

  void SetSeries(const char* figure, const char* x_name) {
    figure_ = figure;
    x_name_ = x_name;
  }

  void AddRow(const std::string& scheme, double x, const Measurement& m) {
    rows_.push_back(Row{figure_, x_name_, scheme, x, m});
  }

  // Named scalar for benches whose output is not Measurement-shaped
  // (abl_engine's qps/update_ms, ...).
  void AddValue(const std::string& key, double v) {
    values_.emplace_back(key, v);
  }

  // Pre-rendered JSON subdocument, emitted verbatim under `key`
  // (abl_engine attaches core::QueryEngine::MetricsSnapshot() this way).
  void AddJson(const std::string& key, std::string json) {
    raw_json_.emplace_back(key, std::move(json));
  }

  // Writes the JSON report if --json was given; returns `code` (or 1 if
  // the write failed) so mains can `return ...Finish(code);`.
  int Finish(int code) {
    if (json_path_.empty()) return code;
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_);
    w.Key("smoke").Bool(smoke_);
    w.Key("exit_code").I64(code);
    w.Key("context").BeginObject();
    w.Key("hw_threads").I64(std::thread::hardware_concurrency());
    w.Key("avx2_active").Bool(kern::Avx2Active());
    w.Key("compiler").String(IMAGEPROOF_COMPILER);
    w.Key("build_type").String(IMAGEPROOF_BUILD_TYPE);
    w.EndObject();
    w.Key("rows").BeginArray();
    for (const Row& r : rows_) {
      w.BeginObject();
      w.Key("figure").String(r.figure);
      w.Key("scheme").String(r.scheme);
      w.Key("x_name").String(r.x_name);
      w.Key("x").Double(r.x);
      w.Key("sp_bovw_ms").Double(r.m.sp_bovw_ms);
      w.Key("sp_inv_ms").Double(r.m.sp_inv_ms);
      w.Key("client_bovw_ms").Double(r.m.client_bovw_ms);
      w.Key("client_inv_ms").Double(r.m.client_inv_ms);
      w.Key("bovw_vo_kb").Double(r.m.bovw_vo_kb);
      w.Key("inv_vo_kb").Double(r.m.inv_vo_kb);
      w.Key("popped_fraction").Double(r.m.popped_fraction);
      w.Key("share_ratio").Double(r.m.share_ratio);
      w.Key("verified").Bool(r.m.verified);
      w.EndObject();
    }
    w.EndArray();
    w.Key("values").BeginObject();
    for (const auto& [key, v] : values_) w.Key(key).Double(v);
    w.EndObject();
    for (const auto& [key, j] : raw_json_) w.Key(key).Raw(j);
    w.Key("metrics").Raw(obs::Registry::Global().ToJson());
    w.EndObject();
    std::string out = w.Take();
    FILE* f = std::fopen(json_path_.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", json_path_.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "bench: wrote %s\n", json_path_.c_str());
    return code;
  }

 private:
  struct Row {
    std::string figure, x_name, scheme;
    double x;
    Measurement m;
  };

  std::string name_, json_path_, figure_, x_name_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> raw_json_;
  bool smoke_ = false;
};

// Shorthands so bench mains read naturally.
inline void InitBench(int argc, char** argv, const char* name) {
  BenchReport::Global().Init(argc, argv, name);
}
inline bool SmokeMode() { return BenchReport::Global().smoke(); }
inline int FinishBench(int code) { return BenchReport::Global().Finish(code); }

inline void PrintFigureHeader(const char* figure, const char* description,
                              const char* x_name) {
  BenchReport::Global().SetSeries(figure, x_name);
  std::printf("=================================================================="
              "=============\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("%-16s %8s | %10s %12s %10s %9s %7s\n", "scheme", x_name,
              "sp_ms", "client_ms", "vo_KB", "popped%", "share");
  std::printf("------------------------------------------------------------------"
              "-------------\n");
}

inline void PrintRow(const std::string& scheme, double x,
                     const Measurement& m) {
  BenchReport::Global().AddRow(scheme, x, m);
  std::printf("%-16s %8.0f | %10.2f %12.2f %10.1f %8.1f%% %7.2f%s\n",
              scheme.c_str(), x, m.SpMs(), m.ClientMs(), m.VoKb(),
              m.popped_fraction * 100.0, m.share_ratio,
              m.verified ? "" : "   [VERIFY FAILED]");
}

}  // namespace imageproof::bench

#endif  // IMAGEPROOF_BENCH_BENCH_UTIL_H_
