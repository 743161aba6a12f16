#include "core/query_cache.h"

#include <cstring>

#include "crypto/sha3.h"

namespace imageproof::core {

namespace {

// Fixed shard count: enough to keep the per-shard mutexes out of each
// other's way at the engine's worker counts, small enough that the
// per-shard LRU bound stays a useful fraction of the total capacity.
constexpr size_t kShards = 8;

}  // namespace

QueryCache::QueryCache(size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) return;
  shard_capacity_ = (capacity_ + kShards - 1) / kShards;
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

namespace {

// Flag bit of a serve for a proven BoVW vector (ProvenKey).
constexpr uint8_t kProvenFlag = 8;

// Starts a key over (version, flags, k, n): length-prefixed framing so no
// two distinct (version, flags, k, items) tuples can collide by
// concatenation ambiguity.
crypto::Sha3_256 KeyHeader(uint64_t version, uint8_t flags, size_t k,
                           uint64_t n) {
  crypto::Sha3_256 h;
  uint8_t header[8 + 1 + 8 + 8];
  std::memcpy(header, &version, 8);
  header[8] = flags;
  uint64_t kk = k;
  std::memcpy(header + 9, &kk, 8);
  std::memcpy(header + 17, &n, 8);
  h.Update(header, sizeof(header));
  return h;
}

}  // namespace

crypto::Digest QueryCache::Key(
    uint64_t version, bool compress_vo, size_t k,
    const std::vector<std::vector<float>>& features, bool settle_exact_topk) {
  crypto::Sha3_256 h = KeyHeader(
      version,
      static_cast<uint8_t>((compress_vo ? 1 : 0) | (settle_exact_topk ? 2 : 0)),
      k, features.size());
  for (const std::vector<float>& f : features) {
    uint64_t dims = f.size();
    uint8_t len[8];
    std::memcpy(len, &dims, 8);
    h.Update(len, 8);
    h.Update(reinterpret_cast<const uint8_t*>(f.data()), f.size() * 4);
  }
  return h.Finalize();
}

crypto::Digest QueryCache::ProvenKey(uint64_t version, bool compress_vo,
                                     size_t k, const bovw::BovwVector& bovw,
                                     bool settle_exact_topk) {
  crypto::Sha3_256 h = KeyHeader(
      version,
      static_cast<uint8_t>((compress_vo ? 1 : 0) |
                           (settle_exact_topk ? 2 : 0) | kProvenFlag),
      k, bovw.entries.size());
  for (const auto& [c, f] : bovw.entries) {
    uint8_t entry[8];
    std::memcpy(entry, &c, 4);
    std::memcpy(entry + 4, &f, 4);
    h.Update(entry, sizeof(entry));
  }
  return h.Finalize();
}

QueryCache::Shard& QueryCache::ShardFor(const crypto::Digest& key) {
  // DigestHasher reads the leading digest bytes — uniformly distributed, so
  // a modulo spreads keys evenly.
  return *shards_[crypto::DigestHasher{}(key) % kShards];
}

std::shared_ptr<const QueryResponse> QueryCache::Lookup(
    const crypto::Digest& key) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.Add();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.Add();
  return it->second->response;
}

void QueryCache::Insert(const crypto::Digest& key,
                        std::shared_ptr<const QueryResponse> response) {
  if (!enabled()) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A racing cold serve of the same key already inserted a byte-identical
    // response; just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(response)});
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.Add();
  }
}

QueryCacheStats QueryCache::Stats() const {
  QueryCacheStats s;
  s.hits = hits_.Value();
  s.misses = misses_.Value();
  s.evictions = evictions_.Value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->lru.size();
  }
  return s;
}

}  // namespace imageproof::core
