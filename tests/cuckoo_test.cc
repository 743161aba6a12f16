// Tests for the cuckoo filter: membership semantics, deletion support,
// false-positive behavior, serialization, and the paper's MaxCount bound
// (Algorithm 2 / Lemma 1).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "crypto/sha3.h"
#include "cuckoo/counting_bloom.h"
#include "cuckoo/cuckoo_filter.h"

namespace imageproof::cuckoo {
namespace {

TEST(CuckooParamsTest, GeometryForMaxItems) {
  CuckooParams p = CuckooParams::ForMaxItems(1000);
  EXPECT_EQ(p.num_buckets & (p.num_buckets - 1), 0u) << "power of two";
  EXPECT_GE(p.num_buckets, 600u);
  EXPECT_EQ(p.slots_per_bucket, 4u);
}

TEST(CuckooFilterTest, NoFalseNegatives) {
  CuckooParams params = CuckooParams::ForMaxItems(500);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(filter.Insert(i * 1000003 + 7)) << i;
  }
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(filter.Contains(i * 1000003 + 7)) << i;
  }
}

TEST(CuckooFilterTest, LowFalsePositiveRate) {
  CuckooParams params = CuckooParams::ForMaxItems(2000);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(filter.Insert(i));
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.Contains(1000000 + i)) ++fp;
  }
  // 8-bit fingerprints at <50% load: expect well under 3% (the paper's FPR
  // regime where cuckoo beats Bloom).
  EXPECT_LT(fp, probes * 3 / 100);
}

TEST(CuckooFilterTest, DeleteRemovesExactlyOneOccurrence) {
  CuckooParams params = CuckooParams::ForMaxItems(100);
  CuckooFilter filter(params);
  ASSERT_TRUE(filter.Insert(42));
  ASSERT_TRUE(filter.Insert(42));  // duplicate insertion is legal
  EXPECT_EQ(filter.Count(), 2u);
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_TRUE(filter.Contains(42));  // one copy remains
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_FALSE(filter.Contains(42));
  EXPECT_FALSE(filter.Delete(42));  // nothing left
  EXPECT_EQ(filter.Count(), 0u);
}

TEST(CuckooFilterTest, DeleteThenReinsert) {
  CuckooParams params = CuckooParams::ForMaxItems(300);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 300; ++i) ASSERT_TRUE(filter.Insert(i));
  for (uint64_t i = 0; i < 300; i += 2) EXPECT_TRUE(filter.Delete(i));
  for (uint64_t i = 1; i < 300; i += 2) EXPECT_TRUE(filter.Contains(i));
  for (uint64_t i = 0; i < 300; i += 2) ASSERT_TRUE(filter.Insert(i));
  for (uint64_t i = 0; i < 300; ++i) EXPECT_TRUE(filter.Contains(i));
}

TEST(CuckooFilterTest, SerializationRoundTrip) {
  CuckooParams params = CuckooParams::ForMaxItems(200);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 150; ++i) ASSERT_TRUE(filter.Insert(i * 31 + 5));
  Bytes data = filter.Serialize();
  auto restored = CuckooFilter::Deserialize(data);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->StateDigest(), filter.StateDigest());
  for (uint64_t i = 0; i < 150; ++i) {
    EXPECT_TRUE(restored->Contains(i * 31 + 5));
  }
  // Restored filter keeps deleting deterministically like the original.
  CuckooFilter copy = *restored;
  uint32_t b1, b2;
  ASSERT_TRUE(filter.Delete(36, &b1));
  ASSERT_TRUE(copy.Delete(36, &b2));
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(copy.StateDigest(), filter.StateDigest());
}

TEST(CuckooFilterTest, DeserializeRejectsMalformed) {
  CuckooFilter filter(CuckooParams::ForMaxItems(50));
  Bytes data = filter.Serialize();
  Bytes truncated(data.begin(), data.end() - 1);
  EXPECT_FALSE(CuckooFilter::Deserialize(truncated).ok());
  Bytes trailing = data;
  trailing.push_back(0);
  EXPECT_FALSE(CuckooFilter::Deserialize(trailing).ok());
  Bytes bad_params = data;
  bad_params[0] = 3;  // non-power-of-two bucket count
  EXPECT_FALSE(CuckooFilter::Deserialize(bad_params).ok());
}

// The client digests a shipped filter's bytes directly as h(Theta); that is
// StateDigest() of the parsed filter only because Deserialize accepts
// nothing but the canonical encoding. Any mutant that still parses must
// re-serialize to exactly its own bytes.
TEST(CuckooFilterTest, DeserializeAcceptsOnlyCanonicalBytes) {
  for (uint32_t bits : {8u, 12u}) {
    CuckooParams params = CuckooParams::ForMaxItems(64, bits);
    CuckooFilter filter(params);
    for (uint64_t i = 0; i < 40; ++i) ASSERT_TRUE(filter.Insert(i * 17 + 3));
    const Bytes data = filter.Serialize();
    Rng rng(bits);
    size_t parsed = 0;
    for (int t = 0; t < 4000; ++t) {
      Bytes mutant = data;
      const size_t pos = rng.NextBounded(mutant.size());
      mutant[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      auto f = CuckooFilter::Deserialize(mutant);
      if (!f.ok()) continue;
      ++parsed;
      ASSERT_EQ(f->Serialize(), mutant) << "byte " << pos;
      EXPECT_EQ(f->StateDigest(), crypto::Sha3(mutant));
    }
    EXPECT_GT(parsed, 0u);
  }
}

TEST(CuckooFilterTest, StateDigestTracksContent) {
  CuckooParams params = CuckooParams::ForMaxItems(100);
  CuckooFilter a(params), b(params);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(a.Insert(7));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(b.Insert(7));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(CuckooFilterTest, SharedGeometryGivesSharedBuckets) {
  // Lemma 1 requires an item's fingerprint/buckets to agree across filters.
  CuckooParams params = CuckooParams::ForMaxItems(128);
  CuckooFilter a(params), b(params);
  for (uint64_t item : {1ULL, 99ULL, 123456789ULL}) {
    EXPECT_EQ(a.Fingerprint(item), b.Fingerprint(item));
    EXPECT_EQ(a.Bucket1(item), b.Bucket1(item));
  }
}

TEST(CuckooFilterTest, AltBucketIsInvolution) {
  CuckooFilter f(CuckooParams::ForMaxItems(256));
  for (uint64_t item = 0; item < 64; ++item) {
    uint16_t fp = f.Fingerprint(item);
    uint32_t b1 = f.Bucket1(item);
    uint32_t b2 = f.AltBucket(b1, fp);
    EXPECT_EQ(f.AltBucket(b2, fp), b1);
  }
}

TEST(CuckooFilterTest, SixteenBitFingerprints) {
  CuckooParams params = CuckooParams::ForMaxItems(100, /*fingerprint_bits=*/16);
  CuckooFilter filter(params);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(filter.Insert(i));
  for (uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(filter.Contains(i));
  auto restored = CuckooFilter::Deserialize(filter.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->StateDigest(), filter.StateDigest());
}

// MaxCount (Algorithm 2): gamma upper-bounds the true max frequency of any
// item across the filter set.
TEST(MaxCountTest, BoundsTrueFrequency) {
  CuckooParams params = CuckooParams::ForMaxItems(200);
  Rng rng(77);
  std::vector<CuckooFilter> filters(20, CuckooFilter(params));
  std::vector<std::set<uint64_t>> contents(20);
  // Insert random items; item 7 goes into 15 filters (the heavy hitter).
  for (int f = 0; f < 20; ++f) {
    for (int i = 0; i < 100; ++i) {
      uint64_t item = rng.NextBounded(5000) + 100;
      if (contents[f].insert(item).second) {
        ASSERT_TRUE(filters[f].Insert(item));
      }
    }
  }
  for (int f = 0; f < 15; ++f) {
    if (contents[f].insert(7).second) {
      ASSERT_TRUE(filters[f].Insert(7));
    }
  }
  // True max frequency across filters.
  size_t true_max = 0;
  std::set<uint64_t> all_items;
  for (const auto& c : contents) all_items.insert(c.begin(), c.end());
  for (uint64_t item : all_items) {
    size_t freq = 0;
    for (const auto& c : contents) freq += c.count(item);
    true_max = std::max(true_max, freq);
  }
  std::vector<const CuckooFilter*> ptrs;
  for (const auto& f : filters) ptrs.push_back(&f);
  uint32_t gamma = MaxCountGamma(ptrs);
  EXPECT_GE(gamma, true_max);  // Lemma 1
}

TEST(MaxCountTest, EmptyFilterSet) {
  EXPECT_EQ(MaxCountGamma({}), 0u);
}

TEST(MaxCountTest, TrackerMatchesRescanUnderDeletions) {
  CuckooParams params = CuckooParams::ForMaxItems(100);
  std::vector<CuckooFilter> filters(8, CuckooFilter(params));
  for (int f = 0; f < 8; ++f) {
    for (uint64_t i = 0; i < 60; ++i) {
      ASSERT_TRUE(filters[f].Insert(i * (f + 1)));
    }
  }
  std::vector<const CuckooFilter*> ptrs;
  for (const auto& f : filters) ptrs.push_back(&f);
  MaxCountTracker tracker(ptrs);
  EXPECT_EQ(tracker.Gamma(), MaxCountGamma(ptrs));

  Rng rng(13);
  for (int step = 0; step < 200; ++step) {
    int f = static_cast<int>(rng.NextBounded(8));
    uint64_t item = rng.NextBounded(60) * (f + 1);
    uint32_t bucket;
    if (filters[f].Delete(item, &bucket)) {
      tracker.OnDelete(bucket, filters[f].Fingerprint(item));
    }
    ASSERT_EQ(tracker.Gamma(), MaxCountGamma(ptrs)) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Counting Bloom filter (the comparison structure)
// ---------------------------------------------------------------------------

TEST(CountingBloomTest, NoFalseNegatives) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(500));
  for (uint64_t i = 0; i < 500; ++i) ASSERT_TRUE(filter.Insert(i * 7 + 1));
  for (uint64_t i = 0; i < 500; ++i) EXPECT_TRUE(filter.Contains(i * 7 + 1));
}

TEST(CountingBloomTest, LowFalsePositiveRate) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(2000));
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(filter.Insert(i));
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.Contains(1000000 + i)) ++fp;
  }
  EXPECT_LT(fp, probes * 2 / 100);
}

TEST(CountingBloomTest, DeleteSupportsMultiplicity) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(100));
  ASSERT_TRUE(filter.Insert(42));
  ASSERT_TRUE(filter.Insert(42));
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_TRUE(filter.Contains(42));
  EXPECT_TRUE(filter.Delete(42));
  EXPECT_FALSE(filter.Contains(42));
  EXPECT_FALSE(filter.Delete(42));
}

TEST(CountingBloomTest, CounterSaturationRejected) {
  CountingBloomFilter filter(BloomParams::ForMaxItems(64));
  // The same item 15 times saturates its counters; the 16th insert fails
  // cleanly and the filter still contains the item.
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(filter.Insert(7)) << i;
  EXPECT_FALSE(filter.Insert(7));
  EXPECT_TRUE(filter.Contains(7));
}

TEST(CountingBloomTest, StateDigestTracksContent) {
  BloomParams params = BloomParams::ForMaxItems(100);
  CountingBloomFilter a(params), b(params);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(a.Insert(5));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  ASSERT_TRUE(a.Delete(5));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(CuckooStressTest, HighLoadInsertMostlySucceeds) {
  // At the paper's 60%-of-max sizing, load stays below ~42% and inserts
  // never fail; push to ~90% to confirm the eviction path works.
  CuckooParams params;
  params.num_buckets = 64;
  CuckooFilter filter(params);
  size_t capacity = params.num_buckets * params.slots_per_bucket;
  size_t inserted = 0;
  for (uint64_t i = 0; i < capacity * 9 / 10; ++i) {
    if (filter.Insert(i)) ++inserted;
  }
  EXPECT_GE(inserted, capacity * 8 / 10);
  EXPECT_EQ(filter.Count(), inserted);
}

}  // namespace
}  // namespace imageproof::cuckoo
