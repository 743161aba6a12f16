// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size default|tiny] [--work-dir <dir>]
//
// Sets the workload's serving stack up several times (setup_s is the
// median), drives it for --seconds with verifying clients, checks the
// outputs, and prints as its last line one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 if
// a correctness gate fails. perfbench/README.md documents every workload
// and metric.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "checks.h"
#include "common/kernels.h"
#include "layers.h"
#include "load.h"
#include "report.h"
#include "stack.h"

using namespace perfbench;

namespace {

struct Args {
  Workload workload = Workload::kColdUniform;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload cold_uniform|hot_zipf|update_mixed|sharded_4"
               " --seed <n> --seconds <s> --trace <0|1> [--size default|tiny]"
               " [--work-dir <dir>]\n",
               argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &a.workload)) Usage(argv[0]);
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
      if (!(a.seconds > 0)) Usage(argv[0]);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage(argv[0]);
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "default" && value != "tiny") Usage(argv[0]);
      a.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_workload) Usage(argv[0]);
  return a;
}

bool MetricsCompiledIn() {
#ifdef IMAGEPROOF_NO_METRICS
  return false;
#else
  return true;
#endif
}

// Everything a reader needs to tell whether two results are comparable.
std::string ContextJson(const Args& a, const Spec& s, const Inputs& in,
                        bool rss_reset) {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"size\": \"%s\", \"nproc\": %u, \"avx2_active\": %s, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"imageproof_no_metrics\": %s, \"deployment\": {\"config\": "
      "\"ImageProof\", \"images\": %zu, \"clusters\": %zu, \"dims\": %zu, "
      "\"features\": %zu, \"k\": %zu, \"payload_bytes\": %zu, \"rsa_bits\": "
      "%d, \"sign_images\": true, \"shards\": %u, \"connections\": %u, "
      "\"engine_workers\": %u, \"cache_capacity\": %zu, \"zipf_pool\": %zu, "
      "\"zipf_s\": %g, \"update_hz\": %g, \"setup_repeats\": %d}, "
      "\"inputs_digest\": \"%016llx\", \"rss_peak_reset\": %s}",
      WorkloadName(a.workload), static_cast<unsigned long long>(a.seed),
      a.seconds, a.trace ? 1 : 0, a.tiny ? "tiny" : "default",
      std::thread::hardware_concurrency(),
      kern::Avx2Active() ? "true" : "false", PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, MetricsCompiledIn() ? "false" : "true", s.images,
      s.clusters, s.dims, s.features, s.k, s.payload_bytes, s.rsa_bits,
      s.shards, s.Connections(a.workload),
      a.workload == Workload::kSharded4 ? 1u : s.engine_workers, s.cache_capacity,
      s.zipf_pool,
      s.zipf_s, s.update_hz, s.setup_repeats,
      static_cast<unsigned long long>(in.digest), rss_reset ? "true" : "false");
  return buf;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Spec spec = args.tiny ? Spec::Tiny() : Spec::Default();
  const Workload w = args.workload;
  const std::string run_dir =
      args.work_dir + "/run-" + std::to_string(static_cast<long>(getpid()));

  const Inputs in = MakeInputs(spec, args.seed);

  // Set up repeatedly; each stack is torn down before the next is built,
  // and the last one serves.
  std::vector<double> setup_total, setup_build, setup_persist, setup_open;
  std::unique_ptr<Stack> st;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    st.reset();
    st = SetUp(w, spec, in, run_dir + "/stack-" + std::to_string(r));
    if (!st) return 1;
    setup_total.push_back(st->times.total_s);
    setup_build.push_back(st->times.build_s);
    setup_persist.push_back(st->times.persist_s);
    setup_open.push_back(st->times.open_s);
  }

  // Warm-up: hot_zipf fills the cache with the whole pool; the others send
  // a few fresh queries per connection so worker scratch and TCP are warm.
  std::vector<std::vector<std::vector<float>>> warm;
  if (w == Workload::kHotZipf) {
    for (size_t i = 0; i < in.mix->pool_size(); ++i) warm.push_back(in.mix->query(i));
  } else {
    for (uint64_t i = 0; i < 2 * spec.Connections(w); ++i) {
      warm.push_back(FreshQuery(spec, in, kWarmStream, i));
    }
  }
  if (!WarmUp(*st, spec, warm)) return 1;

  OwnerCursor cursor;
  cursor.next_insert = spec.images + 1000000;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const bool rss_reset = ResetPeakRss();
  const PhaseResult m =
      RunPhase(*st, spec, in, phase_s, /*traced=*/false, kMeasuredStream, cursor);
  const double rss_mb = PeakRssMb();
  PhaseResult traced;
  if (args.trace) {
    traced = RunPhase(*st, spec, in, phase_s, /*traced=*/true, kTracedStream, cursor);
  }

  // Correctness gates.
  bool correct = true;
  const uint64_t rejected = m.rejected + traced.rejected;
  if (rejected > 0) {
    std::fprintf(stderr, "perfbench: %llu responses rejected by the client: %s\n",
                 static_cast<unsigned long long>(rejected),
                 (m.first_error.empty() ? traced.first_error : m.first_error).c_str());
    correct = false;
  }
  if (m.latency_ms.empty()) {
    std::fprintf(stderr, "perfbench: no query completed\n");
    correct = false;
  }
  if (w == Workload::kSharded4) {
    correct = CheckShardedMatchesUnsharded(*st, spec, in) && correct;
  } else {
    size_t hits = 0;
    correct = CheckServedMatchesColdServe(*st, spec, in, &hits) && correct;
    if (w == Workload::kHotZipf && hits != spec.check_sample) {
      std::fprintf(stderr, "perfbench: hot_zipf sample was not served from the cache\n");
      correct = false;
    }
  }
  if (w == Workload::kUpdateMixed) {
    std::vector<bovw::ImageId> inserts = m.acked_inserts, deletes = m.acked_deletes;
    inserts.insert(inserts.end(), traced.acked_inserts.begin(), traced.acked_inserts.end());
    deletes.insert(deletes.end(), traced.acked_deletes.begin(), traced.acked_deletes.end());
    correct = CheckDurability(*st, inserts, deletes) && correct;
  }

  const double verified = static_cast<double>(m.latency_ms.size());
  const double p50 = Median(m.latency_ms);
  const double p99 = Percentile(m.latency_ms, 0.99);
  const double write_kb_per_update =
      Ratio(m.update_write_bytes, m.acked_inserts.size() + m.acked_deletes.size()) / 1024.0;
  MetricSet metrics;
  if (!args.trace) {
    metrics.Add("query_p50_ms", p50, "ms");
    metrics.Add("query_p99_ms", p99, "ms");
    metrics.Add("query_qps", verified / m.wall_s, "1/s");
    metrics.Add("vo_kb_per_query", m.response_bytes / 1024.0 / verified, "KiB");
    metrics.Add("setup_s", Median(setup_total), "s");
    metrics.Add("rss_mb", rss_mb, "MiB");
  } else {
    correct = ReplayLayers(*st, spec, in, run_dir + "/replay", &metrics) && correct;
    metrics.Add("core.engine.cache_hit_rate",
                Ratio(m.cache_hits, m.cache_hits + m.cache_misses), "ratio");
    metrics.Add("core.engine.memo_share_rate",
                Ratio(m.memo_hits, m.memo_hits + m.memo_builds), "ratio");
    metrics.Add("setup.build_s", Median(setup_build), "s");
    metrics.Add("setup.persist_s", Median(setup_persist), "s");
    metrics.Add("setup.open_s", Median(setup_open), "s");
    metrics.Add("error_rate",
                Ratio(m.queries_failed + m.rejected + m.updates_failed,
                      m.queries_attempted + m.updates_attempted),
                "ratio");
    metrics.Add("update_write_kb", write_kb_per_update, "KiB");
    metrics.Add("trace.rtt_ms", Median(traced.span_rtt_ms), "ms");
    metrics.Add("trace.verify_ms", Median(traced.span_verify_ms), "ms");
    metrics.Add("trace.query_p50_ms", Median(traced.latency_ms), "ms");
    metrics.Add("trace.overhead_ms", Median(traced.latency_ms) - p50, "ms");
  }

  const uint64_t attempted = m.queries_attempted + m.updates_attempted +
                             traced.queries_attempted + traced.updates_attempted;
  const uint64_t failed = m.queries_failed + m.updates_failed + traced.queries_failed +
                          traced.updates_failed + rejected;
  st.reset();
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);

  std::printf("context %s\n", ContextJson(args, spec, in, rss_reset).c_str());
  std::printf("samples {\"verified_queries\": %zu, \"beyond_p99\": %zu, "
              "\"setup_repeats\": %d}\n",
              m.latency_ms.size(),
              m.latency_ms.size() - static_cast<size_t>(std::ceil(0.99 * verified)),
              spec.setup_repeats);
  if (w == Workload::kUpdateMixed) {
    std::printf("owner {\"updates\": %llu, \"failed\": %llu, \"update_p50_ms\": %.6g, "
                "\"update_max_ms\": %.6g, \"update_gen_lag_ms\": %.6g, "
                "\"update_write_kb\": %.6g}\n",
                static_cast<unsigned long long>(m.updates_attempted),
                static_cast<unsigned long long>(m.updates_failed), Median(m.update_ms),
                Percentile(m.update_ms, 1.0), Percentile(m.gen_lag_ms, 1.0),
                write_kb_per_update);
  }
  std::printf("%s seed=%llu trace=%d\n", WorkloadName(w),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  metrics.Print(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
