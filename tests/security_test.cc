// Security-focused tests beyond random bit flips: semantically coherent VO
// mutations (a rational cheating SP edits *fields*, not random bytes) and
// parser-robustness fuzzing of every untrusted-input surface.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/client.h"
#include "core/owner.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "cuckoo/cuckoo_filter.h"
#include "freqgroup/fg_index.h"
#include "freqgroup/fg_search.h"
#include "freqgroup/fg_verify.h"
#include "invindex/search.h"
#include "invindex/verify.h"
#include "mrkd/commit.h"
#include "mrkd/search.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "shard/composite.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/manifest.h"
#include "shard/planner.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

// ---------------------------------------------------------------------------
// Semantic attacks on the inverted-index VO
// ---------------------------------------------------------------------------

class SemanticAttackTest : public ::testing::Test {
 public:
  SemanticAttackTest() {
    workload::CorpusParams cp;
    cp.num_images = 600;
    cp.num_clusters = 128;
    cp.seed = 77;
    corpus_ = workload::GenerateCorpus(cp);
    std::vector<bovw::BovwVector> vecs;
    for (auto& [id, v] : corpus_) vecs.push_back(v);
    auto weights = bovw::ClusterWeights::FromCorpus(128, vecs);
    index_ = std::make_unique<invindex::MerkleInvertedIndex>(
        invindex::MerkleInvertedIndex::Build(128, corpus_, weights, true));
    query_ = workload::QueryFromImage(cp, corpus_[33].second, 60, 0.2, 5);
    invindex::InvSearchParams params;
    params.k = 5;
    honest_ = invindex::InvSearch(*index_, query_, params);
    for (const auto& si : honest_.topk) claimed_.push_back(si.id);
  }

  bool Accepts(const Bytes& vo, const std::vector<bovw::ImageId>& claimed) {
    invindex::InvVerifyResult verified;
    if (!invindex::VerifyInvVo(vo, query_, claimed, 5, true, &verified).ok()) {
      return false;
    }
    for (const auto& [c, digest] : verified.list_digests) {
      if (digest != index_->list(c).digest) return false;
    }
    return true;
  }

  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus_;
  std::unique_ptr<invindex::MerkleInvertedIndex> index_;
  bovw::BovwVector query_;
  invindex::InvSearchResult honest_;
  std::vector<bovw::ImageId> claimed_;
};

// Field-level model of an InvSearch VO (mirrors the documented layout),
// shared by the semantic attacks here and the engine-path tamper matrix.
struct Posting {
  uint64_t id;
  double impact;
};
struct List {
  uint64_t cluster;
  double weight;
  std::vector<Posting> popped;
  uint8_t flags;
  crypto::Digest first_remaining;
  Bytes filter;
  crypto::Digest theta;
};

// Re-serializes a parsed VO faithfully, so a single-field mutation yields a
// VO that differs only in that field.
Bytes Reserialize(const std::vector<List>& lists) {
  ByteWriter w;
  w.PutU8(1);
  w.PutVarint(lists.size());
  for (const List& l : lists) {
    w.PutVarint(l.cluster);
    w.PutF64(l.weight);
    w.PutVarint(l.popped.size());
    for (const Posting& p : l.popped) {
      w.PutVarint(p.id);
      w.PutF64(p.impact);
    }
    w.PutU8(l.flags);
    if (l.flags & 1) crypto::PutDigest(w, l.first_remaining);
    if (l.flags & 2) {
      w.PutBlob(l.filter);
    } else {
      crypto::PutDigest(w, l.theta);
    }
  }
  return w.Take();
}

std::vector<List> ParseVo(const Bytes& vo) {
  std::vector<List> lists;
  ByteReader r(vo);
  uint8_t use_filters;
  if (!r.GetU8(&use_filters).ok()) return lists;
  uint64_t n;
  if (!r.GetVarint(&n).ok()) return lists;
  for (uint64_t i = 0; i < n; ++i) {
    List l;
    if (!r.GetVarint(&l.cluster).ok()) return {};
    if (!r.GetF64(&l.weight).ok()) return {};
    uint64_t popped;
    if (!r.GetVarint(&popped).ok()) return {};
    for (uint64_t j = 0; j < popped; ++j) {
      Posting p;
      if (!r.GetVarint(&p.id).ok()) return {};
      if (!r.GetF64(&p.impact).ok()) return {};
      l.popped.push_back(p);
    }
    if (!r.GetU8(&l.flags).ok()) return {};
    if (l.flags & 1) {
      if (!crypto::GetDigest(r, &l.first_remaining).ok()) return {};
    }
    if (l.flags & 2) {
      if (!r.GetBlob(&l.filter).ok()) return {};
    } else {
      if (!crypto::GetDigest(r, &l.theta).ok()) return {};
    }
    lists.push_back(std::move(l));
  }
  return lists;
}

TEST_F(SemanticAttackTest, HonestReserializationAccepted) {
  auto lists = ParseVo(honest_.vo);
  ASSERT_FALSE(lists.empty());
  EXPECT_EQ(Reserialize(lists), honest_.vo) << "parser/serializer mismatch";
  EXPECT_TRUE(Accepts(honest_.vo, claimed_));
}

TEST_F(SemanticAttackTest, InflatedImpactRejected) {
  // Inflate a popped competitor's impact so it *looks* consistent; the
  // digest chain must expose it.
  auto lists = ParseVo(honest_.vo);
  for (auto& l : lists) {
    if (l.popped.size() >= 2) {
      l.popped[1].impact *= 2.0;
      break;
    }
  }
  EXPECT_FALSE(Accepts(Reserialize(lists), claimed_));
}

TEST_F(SemanticAttackTest, HiddenPostingRejected) {
  // Drop the deepest popped posting of some list (hide a competitor).
  auto lists = ParseVo(honest_.vo);
  for (auto& l : lists) {
    if (l.popped.size() >= 2) {
      l.popped.pop_back();
      break;
    }
  }
  EXPECT_FALSE(Accepts(Reserialize(lists), claimed_));
}

TEST_F(SemanticAttackTest, ReducedWeightRejected) {
  // Shrink a list's weight to depress a competitor's score.
  auto lists = ParseVo(honest_.vo);
  lists[0].weight *= 0.5;
  EXPECT_FALSE(Accepts(Reserialize(lists), claimed_));
}

TEST_F(SemanticAttackTest, SubstitutedFilterRejected) {
  // Replace a shipped filter with an emptier one (making competitors look
  // absent from remaining lists).
  auto lists = ParseVo(honest_.vo);
  for (auto& l : lists) {
    if (l.flags & 2) {
      cuckoo::CuckooFilter empty(
          cuckoo::CuckooParams::ForMaxItems(64));
      l.filter = empty.Serialize();
      break;
    }
  }
  EXPECT_FALSE(Accepts(Reserialize(lists), claimed_));
}

TEST_F(SemanticAttackTest, ForgedRemainingDigestRejected) {
  // Pretend a list is exhausted (hide all remaining postings) by flipping
  // has_remaining and providing h(Theta) instead.
  auto lists = ParseVo(honest_.vo);
  for (auto& l : lists) {
    if ((l.flags & 1) && (l.flags & 2)) {
      l.flags = 0;  // exhausted, no filter
      auto restored = cuckoo::CuckooFilter::Deserialize(l.filter);
      ASSERT_TRUE(restored.ok());
      l.theta = restored->StateDigest();
      break;
    }
  }
  EXPECT_FALSE(Accepts(Reserialize(lists), claimed_));
}

TEST_F(SemanticAttackTest, ReorderedPostingsRejected) {
  // Swap two adjacent popped postings (breaks either the chain digest or
  // the impact-order invariant).
  auto lists = ParseVo(honest_.vo);
  for (auto& l : lists) {
    if (l.popped.size() >= 2) {
      std::swap(l.popped[0], l.popped[1]);
      break;
    }
  }
  EXPECT_FALSE(Accepts(Reserialize(lists), claimed_));
}

// ---------------------------------------------------------------------------
// Semantic attacks on the frequency-grouped VO
// ---------------------------------------------------------------------------

class FgSemanticAttackTest : public ::testing::Test {
 public:
  FgSemanticAttackTest() {
    workload::CorpusParams cp;
    cp.num_images = 400;
    cp.num_clusters = 96;
    cp.seed = 99;
    corpus_ = workload::GenerateCorpus(cp);
    std::vector<bovw::BovwVector> vecs;
    for (auto& [id, v] : corpus_) vecs.push_back(v);
    auto weights = bovw::ClusterWeights::FromCorpus(96, vecs);
    index_ = std::make_unique<freqgroup::FgInvertedIndex>(
        freqgroup::FgInvertedIndex::Build(96, corpus_, weights, true));
    query_ = workload::QueryFromImage(cp, corpus_[21].second, 50, 0.2, 3);
    invindex::InvSearchParams params;
    params.k = 5;
    honest_ = freqgroup::FgSearch(*index_, query_, params);
    for (const auto& si : honest_.topk) claimed_.push_back(si.id);
  }

  bool Accepts(const Bytes& vo) {
    invindex::InvVerifyResult verified;
    if (!freqgroup::FgVerifyVo(vo, query_, claimed_, 5, true, &verified).ok()) {
      return false;
    }
    for (const auto& [c, digest] : verified.list_digests) {
      if (digest != index_->list(c).digest) return false;
    }
    return true;
  }

  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus_;
  std::unique_ptr<freqgroup::FgInvertedIndex> index_;
  bovw::BovwVector query_;
  freqgroup::FgSearchResult honest_;
  std::vector<bovw::ImageId> claimed_;
};

TEST_F(FgSemanticAttackTest, HonestAccepted) { EXPECT_TRUE(Accepts(honest_.vo)); }

TEST_F(FgSemanticAttackTest, NormAndFreqBitsAreCovered) {
  // Flip bits across the whole VO; every accepted variant must be byte-
  // identical in effect (none is, since every field is committed).
  Rng rng(7);
  for (int t = 0; t < 60; ++t) {
    Bytes tampered = honest_.vo;
    tampered[rng.NextBounded(tampered.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));
    EXPECT_FALSE(Accepts(tampered)) << t;
  }
}

// ---------------------------------------------------------------------------
// Parser fuzzing: untrusted bytes must never crash, only fail.
// ---------------------------------------------------------------------------

Bytes RandomBytes(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBounded(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

TEST(ParserFuzzTest, QueryVoDeserializeNeverCrashes) {
  Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 512);
    core::QueryVO vo;
    (void)core::QueryVO::Deserialize(data, &vo);
  }
}

TEST(ParserFuzzTest, InvVoVerifyNeverCrashes) {
  Rng rng(2);
  bovw::BovwVector query;
  query.entries = {{1, 2}, {5, 1}};
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 512);
    invindex::InvVerifyResult out;
    (void)invindex::VerifyInvVo(data, query, {1, 2}, 2, true, &out);
    (void)invindex::VerifyInvVo(data, query, {}, 2, false, &out);
  }
}

TEST(ParserFuzzTest, CuckooDeserializeNeverCrashes) {
  Rng rng(3);
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 256);
    (void)cuckoo::CuckooFilter::Deserialize(data);
  }
}

TEST(ParserFuzzTest, RevealDeserializeNeverCrashes) {
  Rng rng(4);
  for (int t = 0; t < 2000; ++t) {
    Bytes data = RandomBytes(rng, 512);
    ByteReader r(data);
    std::vector<mrkd::ClusterReveal> out;
    (void)mrkd::DeserializeReveals(r, 64, &out);
  }
}

TEST(ParserFuzzTest, TruncationsOfValidVoNeverCrash) {
  // Every prefix of a real VO must fail cleanly, not crash.
  workload::CorpusParams cp;
  cp.num_images = 100;
  cp.num_clusters = 64;
  auto corpus = workload::GenerateCorpus(cp);
  std::vector<bovw::BovwVector> vecs;
  for (auto& [id, v] : corpus) vecs.push_back(v);
  auto weights = bovw::ClusterWeights::FromCorpus(64, vecs);
  auto index = invindex::MerkleInvertedIndex::Build(64, corpus, weights, true);
  auto query = workload::QueryFromImage(cp, corpus[7].second, 30, 0.2, 9);
  invindex::InvSearchParams params;
  params.k = 3;
  auto honest = invindex::InvSearch(index, query, params);
  std::vector<bovw::ImageId> claimed;
  for (auto& si : honest.topk) claimed.push_back(si.id);

  size_t step = std::max<size_t>(1, honest.vo.size() / 200);
  int accepted = 0;
  for (size_t len = 0; len < honest.vo.size(); len += step) {
    Bytes prefix(honest.vo.begin(), honest.vo.begin() + len);
    invindex::InvVerifyResult out;
    if (invindex::VerifyInvVo(prefix, query, claimed, 3, true, &out).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0) << "no strict prefix may verify";
}

// ---------------------------------------------------------------------------
// Adversarial matrix against the concurrent serving path: the same cheating
// strategies a rational SP could mount, but mounted on responses served by
// the QueryEngine. The engine must not open any hole the serial path does
// not have — a client holding the snapshot's PublicParams rejects each.
// ---------------------------------------------------------------------------

class EngineAdversaryTest : public ::testing::Test {
 public:
  EngineAdversaryTest() {
    core::Config config = core::Config::ImageProof();  // plain inv layout
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 300;
    cp.num_clusters = 128;
    cp.seed = 13;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 128;
    cbp.dims = 16;
    owner_ = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                   std::move(corpus), std::move(blobs));
    package_ =
        std::shared_ptr<const core::SpPackage>(std::move(owner_.package));
    core::EngineOptions opts;
    opts.num_workers = 2;
    opts.intra_query_threads = 2;
    engine_ = std::make_unique<core::QueryEngine>(
        package_, owner_.public_params, opts);
    features_ =
        workload::GenerateQueryFeatures(package_->codebook, 10, 0.3, 21);
    honest_ = engine_->Submit(features_, 5).get();
  }

  // Verifies `vo` against the params of the snapshot that served `honest_`.
  bool Accepts(const core::QueryVO& vo) {
    core::Client client(honest_.snapshot->params);
    return client.Verify(features_, 5, vo).ok();
  }

  core::OwnerOutput owner_;
  std::shared_ptr<const core::SpPackage> package_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::vector<std::vector<float>> features_;
  core::EngineResponse honest_;
};

TEST_F(EngineAdversaryTest, HonestResponseAccepted) {
  EXPECT_TRUE(Accepts(honest_.response.vo));
}

TEST_F(EngineAdversaryTest, TamperMatrixRejected) {
  struct TamperCase {
    const char* name;
    std::function<bool(core::QueryVO*)> mutate;  // false = skip (no target)
  };
  const size_t dims = package_->codebook.dims();
  std::vector<TamperCase> cases;

  // 1. Dropped reveal: hide one revealed candidate cluster — the client can
  // then no longer authenticate that candidate's exclusion/assignment.
  cases.push_back({"dropped_reveal", [dims](core::QueryVO* vo) {
                     ByteReader r(vo->reveal_section);
                     std::vector<mrkd::ClusterReveal> reveals;
                     if (!mrkd::DeserializeReveals(r, dims, &reveals).ok() ||
                         reveals.empty()) {
                       return false;
                     }
                     reveals.pop_back();
                     ByteWriter w;
                     mrkd::SerializeReveals(reveals, w);
                     vo->reveal_section = w.Take();
                     return true;
                   }});

  // 2. Swapped posting entry: reorder two popped postings inside one
  // inverted-list stream (breaks the impact order or the chain digest).
  cases.push_back({"swapped_posting_entry", [](core::QueryVO* vo) {
                     auto lists = ParseVo(vo->inv_vo);
                     for (auto& l : lists) {
                       if (l.popped.size() >= 2) {
                         std::swap(l.popped[0], l.popped[1]);
                         vo->inv_vo = Reserialize(lists);
                         return true;
                       }
                     }
                     return false;
                   }});

  // 3. Truncated inv VO: chop the tail of the inverted-index proof.
  cases.push_back({"truncated_inv_vo", [](core::QueryVO* vo) {
                     if (vo->inv_vo.size() < 8) return false;
                     vo->inv_vo.resize(vo->inv_vo.size() - 7);
                     return true;
                   }});

  for (const TamperCase& tc : cases) {
    core::QueryVO tampered = honest_.response.vo;
    if (!tc.mutate(&tampered)) {
      ADD_FAILURE() << tc.name << ": no mutation target in this VO";
      continue;
    }
    EXPECT_FALSE(Accepts(tampered)) << "accepted tampered VO: " << tc.name;
  }
}

TEST_F(EngineAdversaryTest, MemoizedProofsByteIdenticalAndTamperEvident) {
  // honest_ was served through the engine, i.e. with the per-snapshot proof
  // memo feeding MRKD leaf runs and (in dim-Merkle mode) coordinate-block
  // trees. The memo must be invisible: a memoless serial serve produces the
  // same bytes, and the memo'd proof sections stay as tamper-evident as
  // cold ones.
  core::ServiceProvider cold_sp(package_.get());
  Bytes cold = cold_sp.Query(features_, 5).vo.Serialize();
  EXPECT_EQ(honest_.response.vo.Serialize(), cold);

  // Flip one byte in each memo-fed proof section; every mutant must be
  // rejected (parse failure or digest mismatch — never acceptance).
  for (size_t t = 0; t < honest_.response.vo.tree_vos.size(); ++t) {
    core::QueryVO tampered = honest_.response.vo;
    Bytes& stream = tampered.tree_vos[t];
    ASSERT_FALSE(stream.empty());
    stream[stream.size() / 2] ^= 0x10;
    EXPECT_FALSE(Accepts(tampered)) << "tree_vos[" << t << "]";
  }
  core::QueryVO tampered = honest_.response.vo;
  ASSERT_FALSE(tampered.reveal_section.empty());
  tampered.reveal_section[tampered.reveal_section.size() / 3] ^= 0x04;
  EXPECT_FALSE(Accepts(tampered)) << "reveal_section";
}

TEST_F(EngineAdversaryTest, CompressedResponseTamperRejected) {
  core::SubmitOptions compressed;
  compressed.compress_vo = true;
  core::EngineResponse resp = engine_->Submit(features_, 5, compressed).get();
  ASSERT_TRUE(resp.ok());
  // The compressed framing verifies as-is (the hardened parsers decode the
  // group-varint sections before any digest is checked) ...
  ASSERT_TRUE(Accepts(resp.response.vo));
  // ... and every byte of the compressed inv section is load-bearing: the
  // decoded values feed digest reconstruction, so flips surface as parse
  // errors or digest mismatches, never different accepted results.
  const Bytes& inv = resp.response.vo.inv_vo;
  ASSERT_FALSE(inv.empty());
  size_t step = std::max<size_t>(1, inv.size() / 256);
  for (size_t pos = 0; pos < inv.size(); pos += step) {
    core::QueryVO tampered = resp.response.vo;
    tampered.inv_vo[pos] ^= 0x01;
    EXPECT_FALSE(Accepts(tampered)) << "compressed inv_vo byte " << pos;
  }
  // Truncation of the compressed stream is kCorrupted territory, not UB.
  core::QueryVO truncated = resp.response.vo;
  truncated.inv_vo.resize(truncated.inv_vo.size() / 2);
  EXPECT_FALSE(Accepts(truncated));
}

TEST_F(EngineAdversaryTest, TruncatedSerializedVoRejected) {
  // A network- or SP-truncated VO: every strict prefix of the serialized
  // honest response must be rejected with a specific error — either the
  // parser reports kCorrupted or the parsed remains fail verification.
  // Never a crash, never an accept.
  Bytes wire = honest_.response.vo.Serialize();
  ASSERT_GT(wire.size(), 16u);
  for (size_t len : {wire.size() - 1, wire.size() - 7, wire.size() / 2,
                     wire.size() / 4, size_t{16}, size_t{1}, size_t{0}}) {
    Bytes truncated(wire.begin(), wire.begin() + len);
    core::QueryVO vo;
    Status s = core::QueryVO::Deserialize(truncated, &vo);
    if (s.ok()) {
      EXPECT_FALSE(Accepts(vo)) << "accepted VO truncated to " << len;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorrupted) << s.message();
    }
  }
}

TEST_F(EngineAdversaryTest, SplicedVoRejected) {
  // Splice attack: a valid header/prefix from the honest response combined
  // with the body of a DIFFERENT query's response, served by the same
  // engine. Both messages are individually authentic, so every digest in
  // each half is genuine — only the cross-binding to this query's features
  // can reject the hybrid.
  auto foreign_features =
      workload::GenerateQueryFeatures(package_->codebook, 10, 0.3, 77);
  core::EngineResponse foreign = engine_->Submit(foreign_features, 5).get();
  ASSERT_TRUE(foreign.ok());

  // Field-level splices: swap one VO section wholesale.
  {
    core::QueryVO hybrid = honest_.response.vo;
    hybrid.inv_vo = foreign.response.vo.inv_vo;
    EXPECT_FALSE(Accepts(hybrid)) << "accepted foreign inverted-index proof";
  }
  {
    core::QueryVO hybrid = honest_.response.vo;
    hybrid.reveal_section = foreign.response.vo.reveal_section;
    hybrid.tree_vos = foreign.response.vo.tree_vos;
    EXPECT_FALSE(Accepts(hybrid)) << "accepted foreign BoVW proof";
  }

  // Byte-level splices: honest prefix + foreign suffix at several cuts.
  Bytes a = honest_.response.vo.Serialize();
  Bytes b = foreign.response.vo.Serialize();
  for (size_t cut : {size_t{8}, a.size() / 4, a.size() / 2, 3 * a.size() / 4}) {
    ASSERT_LT(cut, a.size());
    size_t fcut = std::min(cut, b.size());
    Bytes spliced(a.begin(), a.begin() + cut);
    spliced.insert(spliced.end(), b.begin() + fcut, b.end());
    core::QueryVO vo;
    Status s = core::QueryVO::Deserialize(spliced, &vo);
    if (s.ok()) {
      EXPECT_FALSE(Accepts(vo)) << "accepted splice at " << cut;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorrupted) << s.message();
    }
  }
}

TEST_F(EngineAdversaryTest, StaleSignatureRejected) {
  // The SP updates the deployment, then tries to pass off a response served
  // under the NEW root to a client still holding (or replaying) the OLD
  // public parameters — and vice versa. Both directions must fail: a root
  // signature authenticates exactly one package state.
  auto old_params = honest_.snapshot->params;
  workload::CorpusParams qp;
  qp.num_clusters = 128;
  auto ins = engine_->InsertImage(owner_.private_key, 31000,
                                  workload::GenerateQueryBovw(qp, 20, 3),
                                  workload::GenerateImageBlob(31000));
  ASSERT_TRUE(ins.ok()) << ins.status().message();

  core::EngineResponse fresh = engine_->Submit(features_, 5).get();
  ASSERT_GT(fresh.snapshot->version, honest_.snapshot->version);

  // New response under old params: stale signature, reject.
  core::Client stale_client(old_params);
  EXPECT_FALSE(stale_client.Verify(features_, 5, fresh.response.vo).ok());
  // Old (replayed) response under new params: also reject.
  core::Client new_client(fresh.snapshot->params);
  EXPECT_FALSE(new_client.Verify(features_, 5, honest_.response.vo).ok());
  // Each verifies under its own snapshot.
  EXPECT_TRUE(new_client.Verify(features_, 5, fresh.response.vo).ok());
  EXPECT_TRUE(stale_client.Verify(features_, 5, honest_.response.vo).ok());
}

// ---------------------------------------------------------------------------
// Lane-position tampers. The client digests independent messages four at a
// time on the interleaved Keccak (reveal commitments, MRKD nodes level by
// level, posting chains list by list). A tamper must be caught whichever
// lane — or lane refill — its message lands in.
// ---------------------------------------------------------------------------

// Byte offsets of tamper targets in one MRKD tree VO stream.
struct TreeVoTargets {
  // Height (leaf 0, internal 1 + max over children, pruned -1) -> offset
  // of one internal node's f32 split value.
  std::map<int, size_t> split_value_by_height;
  // Depth from the root -> offset of one leaf's first list digest.
  std::map<int, size_t> list_digest_by_depth;
};

// Walks one token subtree of an honest stream; returns its height.
int WalkTreeVo(ByteReader& r, const uint8_t* base, int depth,
               TreeVoTargets* out) {
  uint8_t kind = 0;
  EXPECT_TRUE(r.GetU8(&kind).ok());
  if (kind == mrkd::kTokenPruned) {
    EXPECT_TRUE(r.Skip(crypto::kDigestSize).ok());
    return -1;
  }
  if (kind == mrkd::kTokenLeaf) {
    uint64_t count = 0;
    EXPECT_TRUE(r.GetVarint(&count).ok());
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t cid = 0;
      EXPECT_TRUE(r.GetVarint(&cid).ok());
      if (i == 0) out->list_digest_by_depth.emplace(depth, r.data() - base);
      EXPECT_TRUE(r.Skip(crypto::kDigestSize).ok());
    }
    return 0;
  }
  uint64_t dim = 0;
  EXPECT_TRUE(r.GetVarint(&dim).ok());
  const size_t split_offset = r.data() - base;
  float split_value = 0;
  EXPECT_TRUE(r.GetF32(&split_value).ok());
  const int left = WalkTreeVo(r, base, depth + 1, out);
  const int right = WalkTreeVo(r, base, depth + 1, out);
  const int height = 1 + std::max(left, right);
  out->split_value_by_height.emplace(height, split_offset);
  return height;
}

TEST_F(EngineAdversaryTest, RevealCoordinateAtEveryLaneRejected) {
  const size_t dims = package_->codebook.dims();
  ByteReader r(honest_.response.vo.reveal_section);
  std::vector<mrkd::ClusterReveal> reveals;
  ASSERT_TRUE(mrkd::DeserializeReveals(r, dims, &reveals).ok());
  // Reveals 0..7 fill all four lanes twice: the second four are refills.
  ASSERT_GE(reveals.size(), 8u);
  for (size_t j = 0; j < 8; ++j) {
    std::vector<mrkd::ClusterReveal> mutated = reveals;
    ASSERT_TRUE(mutated[j].full);
    float& coord = mutated[j].coords[j % dims];
    coord = std::nextafter(coord, std::numeric_limits<float>::infinity());
    ByteWriter w;
    mrkd::SerializeReveals(mutated, w);
    core::QueryVO tampered = honest_.response.vo;
    tampered.reveal_section = w.Take();
    EXPECT_FALSE(Accepts(tampered)) << "reveal " << j;
  }
}

TEST_F(EngineAdversaryTest, TreeVoSplitValueAndListDigestAtEveryLevelRejected) {
  const Bytes& stream = honest_.response.vo.tree_vos[0];
  TreeVoTargets targets;
  ByteReader r(stream);
  WalkTreeVo(r, stream.data(), 0, &targets);
  ASSERT_TRUE(r.AtEnd());
  ASSERT_GE(targets.split_value_by_height.size(), 2u);
  ASSERT_GE(targets.list_digest_by_depth.size(), 2u);
  // The lowest mantissa bit: the smallest change to the hashed bytes.
  for (const auto& [height, offset] : targets.split_value_by_height) {
    core::QueryVO tampered = honest_.response.vo;
    tampered.tree_vos[0][offset] ^= 0x01;
    EXPECT_FALSE(Accepts(tampered)) << "split value at height " << height;
  }
  for (const auto& [depth, offset] : targets.list_digest_by_depth) {
    core::QueryVO tampered = honest_.response.vo;
    tampered.tree_vos[0][offset] ^= 0x01;
    EXPECT_FALSE(Accepts(tampered)) << "list digest at depth " << depth;
  }
}

TEST_F(EngineAdversaryTest, PoppedImpactInEachOfFirstFourListsRejected) {
  const std::vector<List> lists = ParseVo(honest_.response.vo.inv_vo);
  ASSERT_FALSE(lists.empty());
  size_t mutated = 0;
  for (size_t li = 0; li < lists.size() && mutated < 4; ++li) {
    if (lists[li].popped.empty()) continue;
    std::vector<List> copy = lists;
    double& impact = copy[li].popped.back().impact;
    impact = std::nextafter(impact, 0.0);
    core::QueryVO tampered = honest_.response.vo;
    tampered.inv_vo = Reserialize(copy);
    EXPECT_FALSE(Accepts(tampered)) << "popped impact in list " << li;
    ++mutated;
  }
  EXPECT_EQ(mutated, 4u);
}

// ---------------------------------------------------------------------------
// MITM over the wire: a protocol-aware adversary between a real NetServer
// and a real NetClient rewrites response frames mid-flight. This is the
// paper's threat model made literal — the transport gives no integrity, so
// Client::Verify alone must catch every rewrite of the results, the VO, or
// the root signature. (A transport-level MITM that garbles framing is the
// easy case: kCorrupted. These mutants keep the framing VALID.)
// ---------------------------------------------------------------------------

// One-shot TCP relay: accepts a single client connection, forwards request
// frames upstream verbatim, and passes each downstream (server -> client)
// frame through `rewrite` before relaying it. Frame-aware in both
// directions, so mutations operate on exactly one complete response frame.
class MitmProxy {
 public:
  MitmProxy(uint16_t upstream_port, std::function<Bytes(Bytes)> rewrite)
      : upstream_port_(upstream_port), rewrite_(std::move(rewrite)) {
    auto listener = net::ListenTcp("127.0.0.1", 0, &port_);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { Run(); });
  }

  ~MitmProxy() {
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  // Blocking read of one complete frame from `fd` into *frame (raw bytes,
  // header included). False on peer close.
  static bool ReadFrame(int fd, Bytes* buffer, Bytes* frame) {
    net::FrameHeader header;
    Bytes payload;
    Status err;
    for (;;) {
      Bytes probe = *buffer;
      if (net::TryExtractFrame(&probe, &header, &payload, &err) ==
          net::ExtractResult::kFrame) {
        size_t frame_len = buffer->size() - probe.size();
        frame->assign(buffer->begin(), buffer->begin() + frame_len);
        buffer->erase(buffer->begin(), buffer->begin() + frame_len);
        return true;
      }
      uint8_t chunk[4096];
      auto got = net::RecvSome(fd, chunk, sizeof(chunk));
      if (!got.ok() || got.value() == 0) return false;
      buffer->insert(buffer->end(), chunk, chunk + got.value());
    }
  }

  void Run() {
    int client_fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (client_fd < 0) return;
    net::Socket client(client_fd);
    auto upstream = net::ConnectTcp("127.0.0.1", upstream_port_);
    if (!upstream.ok()) return;

    Bytes client_buf, upstream_buf;
    Bytes frame;
    while (ReadFrame(client.fd(), &client_buf, &frame)) {
      if (!net::SendAll(upstream->fd(), frame.data(), frame.size()).ok()) {
        return;
      }
      if (!ReadFrame(upstream->fd(), &upstream_buf, &frame)) return;
      Bytes rewritten = rewrite_(std::move(frame));
      if (!net::SendAll(client.fd(), rewritten.data(), rewritten.size())
               .ok()) {
        return;
      }
    }
  }

  uint16_t upstream_port_ = 0;
  std::function<Bytes(Bytes)> rewrite_;
  net::Socket listener_;
  uint16_t port_ = 0;
  std::thread thread_;
};

class WireMitmTest : public ::testing::Test {
 public:
  WireMitmTest() {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 150;
    cp.num_clusters = 64;
    cp.seed = 29;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 64;
    cbp.dims = 8;
    owner_ = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                   std::move(corpus), std::move(blobs));
    package_ =
        std::shared_ptr<const core::SpPackage>(std::move(owner_.package));
    engine_ = std::make_unique<core::QueryEngine>(package_,
                                                  owner_.public_params);
    server_ = std::make_unique<net::NetServer>(engine_.get());
    EXPECT_TRUE(server_->Start().ok());
    features_ = workload::GenerateQueryFeatures(package_->codebook, 8, 0.3,
                                                41);
  }

  // Runs one query through a MITM applying `rewrite` to the response frame;
  // returns the client-side outcome.
  Status QueryThrough(std::function<Bytes(Bytes)> rewrite) {
    MitmProxy proxy(server_->port(), std::move(rewrite));
    auto client = net::NetClient::Connect("127.0.0.1", proxy.port(),
                                          owner_.public_params);
    if (!client.ok()) return client.status();
    auto result = client->Query(features_, 5, /*deadline_ms=*/30000);
    return result.ok() ? Status::Ok() : result.status();
  }

  // Decodes a response frame, hands the payload struct to `mutate`, and
  // re-frames — the protocol-aware rewrite every case below builds on.
  static Bytes RewriteResponse(
      Bytes frame, const std::function<void(net::ResponseFrame*)>& mutate) {
    net::FrameHeader header;
    Bytes payload;
    Status err;
    EXPECT_EQ(net::TryExtractFrame(&frame, &header, &payload, &err),
              net::ExtractResult::kFrame);
    EXPECT_EQ(header.type, net::FrameType::kResponse);
    net::ResponseFrame resp;
    EXPECT_TRUE(net::DecodeResponse(payload, &resp).ok());
    mutate(&resp);
    return net::EncodeFrame(net::FrameType::kResponse,
                            net::EncodeResponse(resp));
  }

  core::OwnerOutput owner_;
  std::shared_ptr<const core::SpPackage> package_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::unique_ptr<net::NetServer> server_;
  std::vector<std::vector<float>> features_;
};

TEST_F(WireMitmTest, PassthroughVerifies) {
  // Control: the proxy itself must be transparent.
  Status st = QueryThrough([](Bytes frame) { return frame; });
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST_F(WireMitmTest, FlippedVoBytesRejected) {
  // One byte anywhere in the VO stream: front, middle, back.
  for (double pos : {0.05, 0.5, 0.95}) {
    Status st = QueryThrough([pos](Bytes frame) {
      return RewriteResponse(std::move(frame), [pos](net::ResponseFrame* r) {
        r->vo_bytes[static_cast<size_t>(pos * r->vo_bytes.size())] ^= 0x01;
      });
    });
    EXPECT_FALSE(st.ok()) << "flip at " << pos << " accepted";
  }
}

TEST_F(WireMitmTest, TamperedResultImageRejected) {
  // Surgically rewrite a RESULT: deserialize the VO, flip one byte of the
  // top result's image payload, reserialize. Eq. (15) signatures must catch
  // it even though every proof structure around it is untouched.
  Status st = QueryThrough([](Bytes frame) {
    return RewriteResponse(std::move(frame), [](net::ResponseFrame* r) {
      core::QueryVO vo;
      ASSERT_TRUE(core::QueryVO::Deserialize(r->vo_bytes, &vo).ok());
      ASSERT_FALSE(vo.results.empty());
      vo.results[0].data[0] ^= 0xFF;
      r->vo_bytes = vo.Serialize();
    });
  });
  EXPECT_FALSE(st.ok());
}

TEST_F(WireMitmTest, SwappedResultIdRejected) {
  Status st = QueryThrough([](Bytes frame) {
    return RewriteResponse(std::move(frame), [](net::ResponseFrame* r) {
      core::QueryVO vo;
      ASSERT_TRUE(core::QueryVO::Deserialize(r->vo_bytes, &vo).ok());
      ASSERT_FALSE(vo.results.empty());
      vo.results[0].id ^= 1;  // claim a different image produced these bytes
      r->vo_bytes = vo.Serialize();
    });
  });
  EXPECT_FALSE(st.ok());
}

TEST_F(WireMitmTest, TamperedSignatureRejected) {
  for (auto mutate : {
           +[](net::ResponseFrame* r) { r->root_signature[0] ^= 0x01; },
           +[](net::ResponseFrame* r) { r->root_signature.pop_back(); },
           +[](net::ResponseFrame* r) { r->root_signature.clear(); },
       }) {
    Status st = QueryThrough([mutate](Bytes frame) {
      return RewriteResponse(std::move(frame), mutate);
    });
    EXPECT_FALSE(st.ok());
  }
}

TEST_F(WireMitmTest, SubstitutedVoRejected) {
  // Replace the whole VO with one served for a DIFFERENT query — every
  // byte individually authentic, but not an answer to what the client
  // asked. The replay must fail against the client's own features.
  core::ServiceProvider sp(package_.get());
  auto other_features =
      workload::GenerateQueryFeatures(package_->codebook, 8, 0.3, 99);
  Bytes other_vo = sp.Query(other_features, 5).vo.Serialize();
  Status st = QueryThrough([&other_vo](Bytes frame) {
    return RewriteResponse(std::move(frame), [&](net::ResponseFrame* r) {
      r->vo_bytes = other_vo;
    });
  });
  EXPECT_FALSE(st.ok());
}

TEST_F(WireMitmTest, AdvisoryVersionMutationStillVerifies) {
  // The one field a MITM may touch without detection: snapshot_version is
  // advisory metadata, authenticated by nothing — the test documents that
  // boundary (and that the VO it arrives with still verifies).
  Status st = QueryThrough([](Bytes frame) {
    return RewriteResponse(std::move(frame), [](net::ResponseFrame* r) {
      r->snapshot_version = 424242;
    });
  });
  EXPECT_TRUE(st.ok()) << st.message();
}

// ---------------------------------------------------------------------------
// Adversarial composite-merge matrix (sharded scatter-gather)
// ---------------------------------------------------------------------------
//
// A malicious coordinator holds N individually valid per-shard VOs, all
// signed by the same owner key — the composite layer is what stops it from
// recombining them dishonestly. Each attack below mutates a REAL composite
// (decode, edit fields, re-encode), and VerifyComposite must reject every
// one; the honest bytes are accepted as the control.

class CompositeAdversaryTest : public ::testing::Test {
 public:
  CompositeAdversaryTest() {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 120;
    cp.num_clusters = 96;
    cp.min_distinct = 4;
    cp.max_distinct = 14;
    cp.seed = 21;
    corpus_ = workload::GenerateCorpus(cp);
    for (const auto& [id, v] : corpus_) {
      blobs_[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 96;
    cbp.dims = 12;
    cbp.seed = 22;
    codebook_ = workload::GenerateCodebook(cbp);
    features_ = workload::FeaturesFromBovw(codebook_, corpus_[3].second, 24,
                                           0.2, 0.1, 99);

    shard::ShardedDeployment dep =
        shard::ShardPlanner::Build(config, codebook_, corpus_, blobs_, 2);
    base_params_ = dep.shards[0].public_params;
    keys_ = dep.keys;
    // Keep the packages shared so attacks can serve them raw.
    std::vector<std::unique_ptr<shard::ShardBackend>> backends;
    for (core::OwnerOutput& s : dep.shards) {
      std::shared_ptr<const core::SpPackage> pkg(std::move(s.package));
      packages_.push_back(pkg);
      shard_params_.push_back(s.public_params);
      backends.push_back(std::make_unique<shard::LocalShardBackend>(
          std::move(pkg), s.public_params, dep.keys.private_key));
    }
    coordinator_ = std::make_unique<shard::Coordinator>(
        std::move(backends), dep.manifest, dep.keys.private_key,
        shard::CoordinatorOptions{});
    Result<Bytes> r = coordinator_->Query(features_, 5);
    EXPECT_TRUE(r.ok());
    honest_bytes_ = *r;
    EXPECT_TRUE(
        shard::CompositeVO::Deserialize(honest_bytes_, &honest_).ok());
  }

  bool Accepts(const shard::CompositeVO& vo) {
    shard::CompositeClient client(base_params_);
    return client.VerifyComposite(features_, 5, vo.Serialize()).ok();
  }

  // Shard `sid`'s settled entry for an arbitrary BoVW vector, as a shard
  // that ignored the proven one would serve it.
  Bytes EntryFor(uint32_t sid, const bovw::BovwVector& v) {
    core::ServiceProvider sp(packages_[sid].get());
    core::ServeOptions serve;
    serve.settle_exact_topk = true;
    serve.proven_bovw = &v;
    core::QueryResponse resp;
    EXPECT_TRUE(sp.Query({}, 5, {}, {}, serve, &resp).ok());
    return resp.vo.Serialize();
  }

  // The vector the honest BoVW section proves.
  bovw::BovwVector HonestVector() {
    core::Client client(base_params_);
    auto v = client.VerifyBovwSection(features_, honest_.bovw);
    EXPECT_TRUE(v.ok());
    return v.ok() ? v->query_bovw : bovw::BovwVector{};
  }

  std::vector<std::pair<bovw::ImageId, bovw::BovwVector>> corpus_;
  std::unordered_map<bovw::ImageId, Bytes> blobs_;
  ann::PointSet codebook_;
  std::vector<std::vector<float>> features_;
  core::PublicParams base_params_;
  crypto::RsaKeyPair keys_;
  std::vector<std::shared_ptr<const core::SpPackage>> packages_;
  std::vector<core::PublicParams> shard_params_;
  std::unique_ptr<shard::Coordinator> coordinator_;
  Bytes honest_bytes_;
  shard::CompositeVO honest_;
};

TEST_F(CompositeAdversaryTest, HonestCompositeAccepted) {
  EXPECT_TRUE(Accepts(honest_));
}

TEST_F(CompositeAdversaryTest, DroppedShardRejected) {
  // The dropped shard might hold a better result; coverage must be total.
  shard::CompositeVO vo = honest_;
  vo.entries.resize(1);
  EXPECT_FALSE(Accepts(vo));
  shard::CompositeVO vo2 = honest_;
  vo2.entries.erase(vo2.entries.begin());  // drop shard 0, keep shard 1
  EXPECT_FALSE(Accepts(vo2));
}

TEST_F(CompositeAdversaryTest, ReorderedEntriesRejected) {
  shard::CompositeVO vo = honest_;
  std::swap(vo.entries[0], vo.entries[1]);
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, SplicedEntryRejected) {
  // Shard 0's (individually valid, owner-signed) VO answering shard 1's
  // slot: the replayed root is not in slot 1's digest set.
  shard::CompositeVO vo = honest_;
  vo.entries[1] = vo.entries[0];
  vo.entries[1].shard_id = 1;
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, DuplicatedEntryRejected) {
  shard::CompositeVO vo = honest_;
  vo.entries.push_back(vo.entries[1]);
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, StaleRootBeyondWindowRejected) {
  // Two epoch swaps on shard 0 age its original root out of the
  // {current, prev} window; replaying the original response is a rollback.
  const auto& corpus_vec = packages_[0]->corpus;
  ASSERT_TRUE(coordinator_
                  ->Insert(1000, corpus_vec[0].second,
                           workload::GenerateImageBlob(1000))
                  .ok());
  ASSERT_TRUE(coordinator_
                  ->Insert(1002, corpus_vec[1].second,
                           workload::GenerateImageBlob(1002))
                  .ok());
  Result<Bytes> fresh = coordinator_->Query(features_, 5);
  ASSERT_TRUE(fresh.ok());
  shard::CompositeVO vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*fresh, &vo).ok());
  vo.entries[0] = honest_.entries[0];
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, TamperedManifestRejected) {
  shard::CompositeVO vo = honest_;
  ASSERT_FALSE(vo.manifest_bytes.empty());
  vo.manifest_bytes[vo.manifest_bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, SubstitutedManifestRejected) {
  // A structurally valid manifest signed by a DIFFERENT key (an SP's own):
  // the owner-key signature check must refuse it.
  Rng rng(91);
  crypto::RsaKeyPair forged_keys = crypto::RsaKeyPair::Generate(512, rng);
  shard::ShardManifest m;
  ASSERT_TRUE(
      shard::ShardManifest::Deserialize(honest_.manifest_bytes, &m).ok());
  m.Sign(forged_keys.private_key);
  shard::CompositeVO vo = honest_;
  vo.manifest_bytes = m.Serialize();
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, UnsettledScoresRejected) {
  // A plain (non-settled) serve yields a perfectly valid VO whose scores
  // are only lower bounds — which would let a shard deflate a score to
  // eject an image from the global merge, so exactness is mandatory. The
  // filterless Baseline config makes inexactness structural (absence from
  // a non-exhausted list is unprovable without filters), so the plain
  // serve below is guaranteed un-settled while the coordinator's settled
  // serve of the same deployment drains to exact scores.
  core::Config config = core::Config::Baseline();
  config.rsa_bits = 512;
  // A corpus big enough that posting lists outlive the bound-resolution
  // pops (short lists drain completely, which would make even a plain
  // serve exact and void the attack).
  workload::CorpusParams cp;
  cp.num_images = 600;
  cp.num_clusters = 128;
  cp.seed = 31;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 128;
  cbp.dims = 12;
  cbp.seed = 32;
  ann::PointSet codebook = workload::GenerateCodebook(cbp);
  std::vector<std::vector<float>> features =
      workload::FeaturesFromBovw(codebook, corpus[3].second, 40, 0.2, 0.3, 99);
  shard::ShardedDeployment dep =
      shard::ShardPlanner::Build(config, codebook, corpus, blobs, 2);
  const core::PublicParams base = dep.shards[0].public_params;
  std::shared_ptr<const core::SpPackage> shard0(std::move(dep.shards[0].package));
  std::shared_ptr<const core::SpPackage> shard1(std::move(dep.shards[1].package));
  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  backends.push_back(std::make_unique<shard::LocalShardBackend>(
      shard0, dep.shards[0].public_params, dep.keys.private_key));
  backends.push_back(std::make_unique<shard::LocalShardBackend>(
      shard1, dep.shards[1].public_params, dep.keys.private_key));
  shard::Coordinator coord(std::move(backends), dep.manifest,
                           dep.keys.private_key, shard::CoordinatorOptions{});
  Result<Bytes> honest = coord.Query(features, 5);
  ASSERT_TRUE(honest.ok()) << honest.status().message();
  shard::CompositeClient client(base);
  ASSERT_TRUE(client.VerifyComposite(features, 5, *honest).ok());

  core::ServiceProvider sp(shard0.get());
  core::QueryResponse resp;
  ASSERT_TRUE(sp.Query(features, 5, {}, {}, {}, &resp).ok());
  core::Client plain(base);
  Result<core::VerifiedResults> unsettled =
      plain.Verify(features, 5, resp.vo);
  ASSERT_TRUE(unsettled.ok());
  ASSERT_FALSE(unsettled->topk_scores_exact);  // the attack's precondition

  shard::CompositeVO vo;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*honest, &vo).ok());
  vo.entries[0].vo_bytes = resp.vo.Serialize();
  EXPECT_FALSE(client.VerifyComposite(features, 5, vo.Serialize()).ok());
}

TEST_F(CompositeAdversaryTest, TamperedBovwSectionRejected) {
  // The one BoVW section every entry is scored on: a bit anywhere in it —
  // threshold, reveal, tree token — or a missing tree must not verify.
  shard::CompositeVO vo = honest_;
  ASSERT_FALSE(vo.bovw.thresholds_sq.empty());
  vo.bovw.thresholds_sq[0] *= 4;
  EXPECT_FALSE(Accepts(vo));

  vo = honest_;
  ASSERT_FALSE(vo.bovw.reveal_section.empty());
  vo.bovw.reveal_section[vo.bovw.reveal_section.size() / 2] ^= 0x01;
  EXPECT_FALSE(Accepts(vo));

  vo = honest_;
  ASSERT_FALSE(vo.bovw.tree_vos.empty());
  Bytes& tree = vo.bovw.tree_vos[0];
  tree[tree.size() / 2] ^= 0x01;
  EXPECT_FALSE(Accepts(vo));

  vo = honest_;
  vo.bovw.tree_vos.pop_back();
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, SplicedBovwSectionRejected) {
  // A genuine BoVW section, but proven for another query: it replays to
  // the right codebook root, yet not for this client's features.
  auto other = workload::FeaturesFromBovw(codebook_, corpus_[7].second, 24,
                                          0.2, 0.1, 5);
  Result<Bytes> r = coordinator_->Query(other, 5);
  ASSERT_TRUE(r.ok());
  shard::CompositeVO foreign;
  ASSERT_TRUE(shard::CompositeVO::Deserialize(*r, &foreign).ok());
  ASSERT_NE(foreign.bovw.reveal_section, honest_.bovw.reveal_section);
  shard::CompositeVO vo = honest_;
  vo.bovw = foreign.bovw;
  EXPECT_FALSE(Accepts(vo));
  // Nor does the whole foreign composite answer this query.
  EXPECT_FALSE(Accepts(foreign));
}

TEST_F(CompositeAdversaryTest, ShardScoringDifferentVectorRejected) {
  // Shard 1 answers (validly, under its own root) for a vector other than
  // the one the BoVW section proves: a word dropped or added changes the
  // lists the inverted VO must reveal, so it cannot verify.
  const bovw::BovwVector honest_vec = HonestVector();
  ASSERT_GE(honest_vec.entries.size(), 2u);
  ASSERT_EQ(EntryFor(1, honest_vec), honest_.entries[1].vo_bytes);

  bovw::BovwVector fewer = honest_vec;
  fewer.entries.erase(fewer.entries.begin());
  shard::CompositeVO vo = honest_;
  vo.entries[1].vo_bytes = EntryFor(1, fewer);
  EXPECT_FALSE(Accepts(vo));

  bovw::BovwVector added = honest_vec;
  for (uint32_t c = 0; c < codebook_.size(); ++c) {
    if (added.FrequencyOf(c) == 0) {
      added.entries.push_back({c, 1});
      break;
    }
  }
  std::sort(added.entries.begin(), added.entries.end());
  vo = honest_;
  vo.entries[1].vo_bytes = EntryFor(1, added);
  EXPECT_FALSE(Accepts(vo));

  // A changed frequency keeps the list set. The client scores every entry
  // with the vector it verified itself, so such an entry either fails or
  // proves exactly the honest answer — never a different one.
  shard::CompositeClient client(base_params_);
  auto honest = client.VerifyComposite(features_, 5, honest_bytes_);
  ASSERT_TRUE(honest.ok());
  for (size_t i = 0; i < honest_vec.entries.size(); ++i) {
    bovw::BovwVector more = honest_vec;
    more.entries[i].second += 3;
    vo = honest_;
    vo.entries[1].vo_bytes = EntryFor(1, more);
    auto got = client.VerifyComposite(features_, 5, vo.Serialize());
    if (!got.ok()) continue;
    ASSERT_EQ(got->topk.size(), honest->topk.size());
    for (size_t j = 0; j < got->topk.size(); ++j) {
      EXPECT_EQ(got->topk[j].id, honest->topk[j].id);
      EXPECT_EQ(got->topk[j].score, honest->topk[j].score);
    }
  }
}

TEST_F(CompositeAdversaryTest, BadListProofRejected) {
  core::QueryVO entry;
  ASSERT_TRUE(
      core::QueryVO::Deserialize(honest_.entries[1].vo_bytes, &entry).ok());
  const std::vector<crypto::Digest> proof = entry.list_proof;
  ASSERT_FALSE(proof.empty());
  auto with_proof = [&](const std::vector<crypto::Digest>& p) {
    core::QueryVO mutated = entry;
    mutated.list_proof = p;
    shard::CompositeVO vo = honest_;
    vo.entries[1].vo_bytes = mutated.Serialize();
    return Accepts(vo);
  };
  ASSERT_TRUE(with_proof(proof));

  // A wrong digest in the proof.
  std::vector<crypto::Digest> flipped = proof;
  flipped[0].bytes[0] ^= 0x01;
  EXPECT_FALSE(with_proof(flipped));
  // A genuine proof, but for other clusters of the same list tree.
  std::vector<uint32_t> others;
  for (const auto& [c, f] : HonestVector().entries) {
    others.push_back((c + 1) % static_cast<uint32_t>(codebook_.size()));
  }
  std::sort(others.begin(), others.end());
  others.erase(std::unique(others.begin(), others.end()), others.end());
  EXPECT_FALSE(with_proof(packages_[1]->list_tree->ProveSubset(others)));
  // Shard 0's (valid) proof for the same clusters.
  core::QueryVO entry0;
  ASSERT_TRUE(
      core::QueryVO::Deserialize(honest_.entries[0].vo_bytes, &entry0).ok());
  ASSERT_NE(entry0.list_proof, proof);
  EXPECT_FALSE(with_proof(entry0.list_proof));
  // A truncated, padded or missing proof.
  std::vector<crypto::Digest> shorter(proof.begin(), proof.end() - 1);
  EXPECT_FALSE(with_proof(shorter));
  std::vector<crypto::Digest> longer = proof;
  longer.push_back(proof[0]);
  EXPECT_FALSE(with_proof(longer));
  EXPECT_FALSE(with_proof({}));
}

TEST_F(CompositeAdversaryTest, ManifestCodebookRootMismatchRejected) {
  // Even an owner-signed manifest must commit the codebook the BoVW
  // section replays to.
  shard::ShardManifest m;
  ASSERT_TRUE(
      shard::ShardManifest::Deserialize(honest_.manifest_bytes, &m).ok());
  EXPECT_EQ(m.codebook_root, packages_[0]->ForestRoot());
  m.codebook_root.bytes[0] ^= 0x01;
  m.Sign(keys_.private_key);
  shard::CompositeVO vo = honest_;
  vo.manifest_bytes = m.Serialize();
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, EntryCarryingItsOwnBovwSectionRejected) {
  // An entry must be inverted-only: a full VO in an entry slot (even a
  // valid one) is not the format.
  core::ServiceProvider sp(packages_[1].get());
  core::ServeOptions serve;
  serve.settle_exact_topk = true;
  core::QueryResponse resp;
  ASSERT_TRUE(sp.Query(features_, 5, {}, {}, serve, &resp).ok());
  ASSERT_TRUE(resp.vo.has_bovw_section());
  shard::CompositeVO vo = honest_;
  vo.entries[1].vo_bytes = resp.vo.Serialize();
  EXPECT_FALSE(Accepts(vo));
}

TEST_F(CompositeAdversaryTest, OldFormatCompositeRejectedAsCorrupted) {
  // The version-2 layout: magic | manifest | entries, each entry a full
  // per-shard VO. No decoder reads it any more.
  ByteWriter w;
  w.PutU32(0x4950434F);
  w.PutBlob(honest_.manifest_bytes);
  w.PutU32(static_cast<uint32_t>(honest_.entries.size()));
  for (uint32_t sid = 0; sid < honest_.entries.size(); ++sid) {
    core::ServiceProvider sp(packages_[sid].get());
    core::ServeOptions serve;
    serve.settle_exact_topk = true;
    core::QueryResponse resp;
    ASSERT_TRUE(sp.Query(features_, 5, {}, {}, serve, &resp).ok());
    w.PutU32(sid);
    w.PutU64(0);
    w.PutBlob(honest_.entries[sid].root_signature);
    w.PutBlob(resp.vo.Serialize());
  }
  const Bytes v2 = w.Take();
  shard::CompositeVO decoded;
  EXPECT_EQ(shard::CompositeVO::Deserialize(v2, &decoded).code(),
            StatusCode::kCorrupted);
  shard::CompositeClient client(base_params_);
  EXPECT_EQ(client.VerifyComposite(features_, 5, v2).status().code(),
            StatusCode::kCorrupted);
}

TEST_F(CompositeAdversaryTest, TamperedEntrySignatureRejected) {
  shard::CompositeVO vo = honest_;
  ASSERT_FALSE(vo.entries[0].root_signature.empty());
  vo.entries[0].root_signature[0] ^= 0x01;
  EXPECT_FALSE(Accepts(vo));
}

}  // namespace
}  // namespace imageproof
