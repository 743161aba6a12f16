// Ablation — the SIMD retrieval-kernel layer (common/kernels.h).
//
// Sections, each on identical inputs with outputs cross-checked (the point
// of the layer is that the portable and AVX2 paths produce bit-identical
// numbers, so only the schedule changes):
//
//   batch128    one query vs N rows of 128-d squared-L2: the naive
//               per-dimension scalar loop (SquaredL2ScalarRef, the pre-PR
//               ann::SquaredL2) vs the portable canonical-order kernel vs
//               the active (AVX2 when available) batch kernel. On AVX2
//               hardware the active/scalar speedup is asserted >= 3x.
//   pruned      nearest-neighbor scan over N rows with a shrinking best
//               bound: exact kernel vs partial-distance early termination,
//               same argmin required.
//   dot/norm    128-d inner product and squared norm, scalar vs active.
//   end-to-end  fig12-style authenticated queries (ImageProof config),
//               measuring the full SP pipeline on the adopted kernels, and
//               a warm reusable QueryScratch vs scratch-free comparison.
//   client      Client::Verify by stage (reveal check, MRKD replay, BoVW
//               check, inverted verify, signatures) at 30 features, plus
//               the digests one verify computes. Stage times come from the
//               client.stage.* histograms, so they read zero in an
//               IMAGEPROOF_NO_METRICS build.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/kernels.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "crypto/sha3.h"
#include "obs/registry.h"

using namespace imageproof;
using namespace imageproof::bench;

namespace {

bool g_ok = true;

void Check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "abl_kernels: CHECK FAILED: %s\n", what);
    g_ok = false;
  }
}

// Contiguous row-major random points in [0, 10)^dims, 32-byte aligned like
// ann::PointSet storage.
kern::AlignedVector<float> RandomRows(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  kern::AlignedVector<float> rows(n * dims);
  for (float& v : rows) {
    v = static_cast<float>(rng.NextU64() % 10000) / 1000.0f;
  }
  return rows;
}

// Best-of-reps wall time for `fn`, in milliseconds. Single-machine CI boxes
// are noisy; the minimum over a few repetitions is the stable statistic.
template <typename Fn>
double BestMs(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch t;
    fn();
    double ms = t.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv, "abl_kernels");
  BenchReport& report = BenchReport::Global();
  const bool smoke = SmokeMode();

  std::printf("Ablation — SIMD retrieval kernels (dispatch: %s)\n",
              kern::Avx2Active() ? "AVX2" : "portable");
  report.AddValue("avx2_compiled", kern::Avx2Compiled() ? 1 : 0);
  report.AddValue("avx2_active", kern::Avx2Active() ? 1 : 0);
  std::printf("%-28s %14s %14s %9s\n", "section", "baseline", "kernel",
              "speedup");
  std::printf("-------------------------------------------------------------------\n");

  // --- batch128: scalar loop vs portable vs active batch kernel ------------
  {
    // n kept cache-resident (1 MB of rows): the adopted call sites scan
    // codebook leaf ranges that live in cache, and the criterion is kernel
    // throughput, not memory bandwidth.
    const size_t dims = 128;
    const size_t n = smoke ? 1024 : 2048;
    const int iters = smoke ? 20 : 400;
    const int reps = 5;
    auto rows = RandomRows(n, dims, 42);
    auto query = RandomRows(1, dims, 43);
    std::vector<double> scalar_out(n), portable_out(n), active_out(n);

    const double scalar_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        for (size_t i = 0; i < n; ++i) {
          scalar_out[i] = kern::internal::SquaredL2ScalarRef(
              query.data(), rows.data() + i * dims, dims);
        }
      }
    });
    const kern::internal::KernelImpls& portable = kern::internal::Portable();
    const double portable_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        portable.squared_l2_batch(query.data(), rows.data(), dims, n, dims,
                                  portable_out.data());
      }
    });
    const double active_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        kern::SquaredL2Batch(query.data(), rows.data(), dims, n, dims,
                             active_out.data());
      }
    });
    Check(std::memcmp(portable_out.data(), active_out.data(),
                      n * sizeof(double)) == 0,
          "batch128: active kernel bit-identical to portable");
    const double dists = static_cast<double>(n) * iters;
    const double speedup = scalar_ms / active_ms;
    std::printf("%-28s %10.1f Md/s %10.1f Md/s %8.2fx\n",
                "batch squared-L2 (128-d)", dists / scalar_ms / 1000.0,
                dists / active_ms / 1000.0, speedup);
    std::printf("%-28s %10.1f Md/s %12s %8.2fx\n", "  portable canonical",
                dists / portable_ms / 1000.0, "", scalar_ms / portable_ms);
    report.AddValue("batch128_scalar_mdps", dists / scalar_ms / 1000.0);
    report.AddValue("batch128_portable_mdps", dists / portable_ms / 1000.0);
    report.AddValue("batch128_active_mdps", dists / active_ms / 1000.0);
    report.AddValue("batch128_speedup", speedup);
    if (kern::Avx2Active()) {
      Check(speedup >= 3.0, "batch128: >= 3x over scalar baseline on AVX2");
    }
  }

  // --- pruned: exact scan vs partial-distance early termination ------------
  {
    const size_t dims = 128;
    const size_t n = smoke ? 1024 : 2048;
    const int iters = smoke ? 20 : 200;
    const int reps = 5;
    auto rows = RandomRows(n, dims, 44);
    // The query is a noisy copy of one row — the AKM leaf-scan regime,
    // where the best-so-far bound goes tight early and most rows prune
    // after the first 32-dim partial check.
    auto query = RandomRows(1, dims, 45);
    {
      Rng rng(46);
      const float* near = rows.data() + (n / 16) * dims;
      for (size_t d = 0; d < dims; ++d) {
        query[d] = near[d] + static_cast<float>(rng.NextU64() % 100) / 400.0f;
      }
    }

    size_t exact_best = 0, pruned_best = 0;
    const double exact_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        double best = kern::SquaredL2(query.data(), rows.data(), dims);
        exact_best = 0;
        for (size_t i = 1; i < n; ++i) {
          double d =
              kern::SquaredL2(query.data(), rows.data() + i * dims, dims);
          if (d < best) {
            best = d;
            exact_best = i;
          }
        }
      }
    });
    const double pruned_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        double best = kern::SquaredL2(query.data(), rows.data(), dims);
        pruned_best = 0;
        for (size_t i = 1; i < n; ++i) {
          double d = kern::SquaredL2Pruned(query.data(),
                                           rows.data() + i * dims, dims, best);
          if (d < best) {
            best = d;
            pruned_best = i;
          }
        }
      }
    });
    Check(exact_best == pruned_best, "pruned: same argmin as exact scan");
    std::printf("%-28s %11.2f ms %13.2f ms %8.2fx\n",
                "pruned nearest scan", exact_ms, pruned_ms,
                exact_ms / pruned_ms);
    report.AddValue("pruned_exact_ms", exact_ms);
    report.AddValue("pruned_ms", pruned_ms);
    report.AddValue("pruned_speedup", exact_ms / pruned_ms);
  }

  // --- dot/norm: scalar loops vs active kernels ----------------------------
  {
    const size_t dims = 128;
    const size_t n = smoke ? 1024 : 2048;
    const int iters = smoke ? 40 : 400;
    const int reps = 5;
    auto rows = RandomRows(n, dims, 46);
    auto query = RandomRows(1, dims, 47);
    std::vector<double> scalar_out(n), kernel_out(n);

    const double dot_scalar_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        for (size_t i = 0; i < n; ++i) {
          const float* r = rows.data() + i * dims;
          double acc = 0;
          for (size_t d = 0; d < dims; ++d) {
            acc += static_cast<double>(query[d]) * static_cast<double>(r[d]);
          }
          scalar_out[i] = acc;
        }
      }
    });
    const double dot_kernel_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        for (size_t i = 0; i < n; ++i) {
          kernel_out[i] = kern::Dot(query.data(), rows.data() + i * dims, dims);
        }
      }
    });
    // Scalar sequential and canonical-order sums differ in rounding, so
    // compare values, not bits.
    for (size_t i = 0; i < n; ++i) {
      double rel = std::abs(scalar_out[i] - kernel_out[i]) /
                   std::max(1.0, std::abs(scalar_out[i]));
      Check(rel < 1e-12, "dot: kernel matches scalar within rounding");
      if (rel >= 1e-12) break;
    }
    std::printf("%-28s %11.2f ms %13.2f ms %8.2fx\n", "dot (128-d)",
                dot_scalar_ms, dot_kernel_ms, dot_scalar_ms / dot_kernel_ms);
    report.AddValue("dot_scalar_ms", dot_scalar_ms);
    report.AddValue("dot_kernel_ms", dot_kernel_ms);
    report.AddValue("dot_speedup", dot_scalar_ms / dot_kernel_ms);

    const double norm_kernel_ms = BestMs(reps, [&] {
      for (int it = 0; it < iters; ++it) {
        for (size_t i = 0; i < n; ++i) {
          kernel_out[i] = kern::SquaredNorm(rows.data() + i * dims, dims);
        }
      }
    });
    for (size_t i = 0; i < n; ++i) {
      const float* r = rows.data() + i * dims;
      double acc = 0;
      for (size_t dd = 0; dd < dims; ++dd) {
        acc += static_cast<double>(r[dd]) * static_cast<double>(r[dd]);
      }
      double rel = std::abs(acc - kernel_out[i]) / std::max(1.0, std::abs(acc));
      Check(rel < 1e-12, "norm: kernel matches scalar within rounding");
      if (rel >= 1e-12) break;
    }
    std::printf("%-28s %13s %13.2f ms\n", "squared norm (128-d)", "",
                norm_kernel_ms);
    report.AddValue("norm_kernel_ms", norm_kernel_ms);
  }

  // --- end-to-end: fig12-style queries on the adopted kernels --------------
  {
    DeploymentSpec spec;
    spec.num_images = smoke ? 2000 : 10000;
    spec.num_clusters = smoke ? 1024 : 4096;
    spec.dims = 64;
    Deployment d(core::Config::ImageProof(), spec);

    PrintFigureHeader("abl_kernels_e2e",
                      "authenticated queries on the SIMD kernel hot path",
                      "features");
    for (size_t nf : smoke ? std::vector<size_t>{50}
                           : std::vector<size_t>{50, 100, 200}) {
      Measurement m = RunQueries(d, nf, 10, smoke ? 2 : 3);
      Check(m.verified, "end-to-end: client verification passes");
      PrintRow("ImageProof", static_cast<double>(nf), m);
    }

    // Warm reusable scratch vs scratch-free on the same query: the engine's
    // steady-state serving path vs a cold caller. Output must be identical.
    const size_t nf = smoke ? 50 : 100;
    auto features = workload::FeaturesFromBovw(
        d.owner.package->codebook, d.owner.package->corpus[0].second, nf, 0.25,
        0.2, 99);
    const int qreps = smoke ? 3 : 8;
    core::QueryScratch scratch;
    core::QueryResponse warm_resp, cold_resp;
    (void)d.sp->Query(features, 10, {}, {}, &warm_resp, &scratch);  // warm-up
    const double scratch_ms = BestMs(qreps, [&] {
      core::QueryResponse r;
      (void)d.sp->Query(features, 10, {}, {}, &r, &scratch);
      warm_resp = std::move(r);
    });
    const double cold_ms = BestMs(qreps, [&] {
      core::QueryResponse r;
      (void)d.sp->Query(features, 10, {}, {}, &r, nullptr);
      cold_resp = std::move(r);
    });
    Check(warm_resp.vo.reveal_section == cold_resp.vo.reveal_section &&
              warm_resp.vo.inv_vo == cold_resp.vo.inv_vo &&
              warm_resp.topk.size() == cold_resp.topk.size(),
          "end-to-end: scratch and scratch-free responses identical");
    std::printf("%-28s %11.2f ms %13.2f ms %8.2fx\n",
                "query (no scratch / warm)", cold_ms, scratch_ms,
                cold_ms / scratch_ms);
    report.AddValue("e2e_query_cold_ms", cold_ms);
    report.AddValue("e2e_query_warm_scratch_ms", scratch_ms);
    report.AddValue("e2e_scratch_speedup", cold_ms / scratch_ms);
  }

  // --- client verify stages ------------------------------------------------
  // The repository benchmark's deployment shape (perfbench/README.md): 2000
  // images, 4096 clusters, 64-d, 30 features, k = 10, signed 4 KiB
  // payloads, 512-bit RSA. Stage means over repeated verifies of the same
  // responses.
  {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = smoke ? 500 : 2000;
    cp.num_clusters = smoke ? 1024 : 4096;
    cp.seed = 1;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id, 4096);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = cp.num_clusters;
    cbp.dims = 64;
    cbp.seed = 2;
    core::OwnerOutput owner = core::BuildDeployment(
        config, workload::GenerateCodebook(cbp), corpus, std::move(blobs), 3);
    core::ServiceProvider sp(owner.package.get());
    core::Client client(owner.public_params);

    const int num_queries = smoke ? 4 : 12;
    const int reps = smoke ? 3 : 20;
    std::vector<std::vector<std::vector<float>>> queries;
    std::vector<core::QueryResponse> responses;
    for (int q = 0; q < num_queries; ++q) {
      const auto& source = corpus[(7 + q) * 2654435761u % corpus.size()].second;
      queries.push_back(workload::FeaturesFromBovw(
          owner.package->codebook, source, 30, 0.25, 0.2, 500 + q));
      responses.push_back(sp.Query(queries.back(), 10));
    }
    static const char* kStages[][2] = {
        {"client.verify_us", "client_verify_ms"},
        {"client.stage.reveal_verify_us", "client_reveal_ms"},
        {"client.stage.mrkd_replay_us", "client_mrkd_replay_ms"},
        {"client.stage.bovw_check_us", "client_bovw_check_ms"},
        {"client.stage.inv_verify_us", "client_inv_verify_ms"},
        {"client.stage.sig_verify_us", "client_sig_verify_ms"},
    };
    obs::Registry& reg = obs::Registry::Global();
    uint64_t before[std::size(kStages)];
    for (size_t i = 0; i < std::size(kStages); ++i) {
      before[i] = reg.GetHistogram(kStages[i][0]).Sum();
    }
    const uint64_t hashes_before = crypto::HashInvocations();
    bool all_verified = true;
    for (int r = 0; r < reps; ++r) {
      for (int q = 0; q < num_queries; ++q) {
        all_verified &= client.Verify(queries[q], 10, responses[q].vo).ok();
      }
    }
    const double verifies = static_cast<double>(reps) * num_queries;
    Check(all_verified, "client stages: every verify passes");
    std::printf("%-28s %11s\n", "client verify stage", "mean ms");
    for (size_t i = 0; i < std::size(kStages); ++i) {
      const double ms =
          (reg.GetHistogram(kStages[i][0]).Sum() - before[i]) / 1000.0 /
          verifies;
      std::printf("%-28s %11.3f\n", kStages[i][1], ms);
      report.AddValue(kStages[i][1], ms);
    }
    const double hashes =
        (crypto::HashInvocations() - hashes_before) / verifies;
    std::printf("%-28s %11.1f\n", "client hashes per verify", hashes);
    report.AddValue("client_hashes_per_verify", hashes);
  }

  return FinishBench(g_ok ? 0 : 1);
}
