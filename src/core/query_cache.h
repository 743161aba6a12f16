// Epoch-keyed query/VO result cache for Zipfian (hot-repeat) traffic.
//
// Serving real image-retrieval traffic, a small set of popular queries
// accounts for most requests. For a fixed snapshot the serving pipeline is
// fully deterministic — same features, same k, same compression flag, same
// package ⇒ byte-identical VO — so repeating the pipeline for a repeated
// query is pure waste. The cache stores the complete QueryResponse keyed by
//
//   SHA3-256( snapshot version ‖ compress flag ‖ k ‖ feature bytes )
//
// The snapshot version in the key is the entire invalidation story: the
// engine's atomic snapshot swap (TryApplyUpdate) bumps the version, so every
// entry cached under the old epoch simply stops being addressable — a hit
// can never serve a pre-swap VO for a post-swap query. Stale entries age out
// of the LRU like any other cold key; no flush, no epochs-in-flight
// bookkeeping, no reader/writer coordination beyond the shard mutex.
//
// Hits return a shared_ptr to the immutable cached response; the caller
// copies it into its own EngineResponse. Because the pipeline is
// deterministic, a hit is byte-identical to a cold serve of the same query
// (asserted by tests/query_cache_test.cc and in-bench by bench/abl_cache).
//
// Concurrency: the key space is split across a fixed set of shards, each a
// mutex-protected LRU (intrusive list + hash map). Lookups and inserts on
// different shards never contend; the critical section is a few pointer
// moves. Counters are obs metrics (compiled to no-ops under
// IMAGEPROOF_NO_METRICS; cache behavior — hits, eviction order, stored
// bytes — is identical either way).

#ifndef IMAGEPROOF_CORE_QUERY_CACHE_H_
#define IMAGEPROOF_CORE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/server.h"
#include "crypto/digest.h"
#include "obs/metrics.h"

namespace imageproof::core {

struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;  // live entries right now (across all shards)
};

class QueryCache {
 public:
  // `capacity` bounds the total number of cached responses across shards;
  // 0 disables the cache (Lookup always misses without counting, Insert is
  // a no-op), which is the engine default so existing serving behavior is
  // unchanged unless a deployment opts in.
  explicit QueryCache(size_t capacity);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }

  // Canonical cache key. Everything that influences a response byte is
  // hashed: the snapshot version (epoch), the VO-compression flag, the
  // settle-exact flag (settle serves pop more postings, so their VOs must
  // never alias the plain-serve entries), k, and the exact feature bit
  // patterns (floats hashed as raw bytes — queries that differ in any ULP
  // are distinct queries).
  static crypto::Digest Key(uint64_t version, bool compress_vo, size_t k,
                            const std::vector<std::vector<float>>& features,
                            bool settle_exact_topk = false);
  // Key of a serve for an already proven BoVW vector (the inverted-only
  // entry of a sharded composite): keyed on the vector, so every query
  // that encodes to it shares one entry. Never equal to a Key() digest
  // (distinct flag bit).
  static crypto::Digest ProvenKey(uint64_t version, bool compress_vo,
                                  size_t k, const bovw::BovwVector& bovw,
                                  bool settle_exact_topk);

  // Returns the cached response and refreshes its LRU position, or null on
  // miss.
  std::shared_ptr<const QueryResponse> Lookup(const crypto::Digest& key);

  // Inserts (or refreshes) `response` under `key`, evicting
  // least-recently-used entries to stay within capacity. Racing inserts for
  // the same key are benign: the pipeline is deterministic, so both values
  // are byte-identical and either may win.
  void Insert(const crypto::Digest& key,
              std::shared_ptr<const QueryResponse> response);

  QueryCacheStats Stats() const;

 private:
  struct Entry {
    crypto::Digest key;
    std::shared_ptr<const QueryResponse> response;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<crypto::Digest, std::list<Entry>::iterator,
                       crypto::DigestHasher>
        index;
  };

  Shard& ShardFor(const crypto::Digest& key);

  const size_t capacity_;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_QUERY_CACHE_H_
