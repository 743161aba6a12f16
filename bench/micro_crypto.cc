// Micro-benchmarks for the crypto substrate: SHA3-256 throughput at
// VO-relevant message sizes, digest-chain rebuilding, and RSA sign/verify
// latency.

#include <benchmark/benchmark.h>

#include "bench/micro_util.h"

#include "common/random.h"
#include "crypto/hasher.h"
#include "crypto/rsa.h"
#include "crypto/sha3.h"

namespace {

using namespace imageproof;
using namespace imageproof::crypto;

Bytes RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

void BM_Sha3(benchmark::State& state) {
  Bytes data = RandomBytes(state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha3(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha3)->Arg(48)->Arg(136)->Arg(1024)->Arg(65536);

// The client's hot loop: rebuilding a posting digest chain.
void BM_PostingChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Digest next = Digest::Zero();
    for (int i = 0; i < n; ++i) {
      next = DigestBuilder()
                 .AddU64(static_cast<uint64_t>(i))
                 .AddF64(1.0 / (i + 1))
                 .AddDigest(next)
                 .Finalize();
    }
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PostingChain)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RsaSign(benchmark::State& state) {
  Rng rng(42);
  RsaKeyPair keys = RsaKeyPair::Generate(static_cast<int>(state.range(0)), rng);
  Digest d = Sha3(RandomBytes(64, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSign(keys.private_key, d));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024);

void BM_RsaVerify(benchmark::State& state) {
  Rng rng(42);
  RsaKeyPair keys = RsaKeyPair::Generate(static_cast<int>(state.range(0)), rng);
  Digest d = Sha3(RandomBytes(64, 3));
  Bytes sig = RsaSign(keys.private_key, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaVerify(keys.public_key, d, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

}  // namespace

IMAGEPROOF_MICRO_BENCH_MAIN("micro_crypto");
