// Tests for the Merkle randomized k-d tree ADS: digest construction,
// MRKDSearch VO generation, client replay verification, node sharing, and
// the Optimization-A candidate reveals.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "ann/rkd_tree.h"
#include "common/random.h"
#include "crypto/sha3.h"
#include "mrkd/commit.h"
#include "mrkd/mrkd_tree.h"
#include "mrkd/search.h"
#include "mrkd/verify.h"

namespace imageproof::mrkd {
namespace {

constexpr size_t kDims = 8;

struct Fixture {
  ann::PointSet clusters;
  std::vector<Digest> list_digests;
  std::unique_ptr<ann::RkdTree> tree;
  std::unique_ptr<MrkdTree> mrkd;
  std::vector<std::vector<float>> query_storage;
  std::vector<const float*> queries;
  std::vector<double> thresholds_sq;

  Fixture(size_t num_clusters, size_t num_queries, RevealMode mode,
          uint64_t seed) {
    Rng rng(seed);
    clusters = ann::PointSet(kDims, 0);
    clusters.set_dims(kDims);
    for (size_t i = 0; i < num_clusters; ++i) {
      std::vector<float> p(kDims);
      for (auto& v : p) v = static_cast<float>(rng.NextGaussian());
      clusters.AppendRow(p);
    }
    list_digests.resize(num_clusters);
    for (size_t i = 0; i < num_clusters; ++i) {
      Bytes payload{static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)};
      list_digests[i] = crypto::Sha3(payload);
    }
    tree = std::make_unique<ann::RkdTree>(clusters, 2, seed + 1);
    mrkd = std::make_unique<MrkdTree>(tree.get(), mode, list_digests);
    for (size_t i = 0; i < num_queries; ++i) {
      std::vector<float> q(kDims);
      for (auto& v : q) v = static_cast<float>(rng.NextGaussian());
      query_storage.push_back(q);
      thresholds_sq.push_back(0.5 + rng.NextDouble() * 2.0);
    }
    for (const auto& q : query_storage) queries.push_back(q.data());
  }

  std::map<ClusterId, Digest> AllCommitments() const {
    std::map<ClusterId, Digest> out;
    for (size_t c = 0; c < clusters.size(); ++c) {
      out[static_cast<ClusterId>(c)] = mrkd->cluster_commitment(c);
    }
    return out;
  }
};

// One tree's replay through the forest verifier.
struct TreeReplay {
  Status status;
  Digest root = Digest::Zero();
  std::vector<std::vector<ClusterId>> candidates;  // per query, sorted
  std::map<ClusterId, Digest> list_digests;
};

TreeReplay ReplayTree(const Bytes& vo,
                      const std::map<ClusterId, Digest>& commitments,
                      const Fixture& f,
                      const std::vector<double>& thresholds_sq, bool shared) {
  std::vector<ClusterId> ids;
  std::vector<Digest> digests;
  for (const auto& [c, d] : commitments) {
    ids.push_back(c);
    digests.push_back(d);
  }
  CommitmentTable table;
  TreeReplay out;
  EXPECT_TRUE(table.Assign(ids, digests).ok());
  ForestVerifyOutput v;
  out.status = VerifyForestVo({vo}, kDims, table, f.queries, thresholds_sq,
                              shared, &v);
  if (!out.status.ok()) return out;
  out.root = v.roots[0];
  out.candidates.resize(f.queries.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    for (size_t e = 0; e < ids.size(); ++e) {
      if (v.candidate[q * ids.size() + e]) out.candidates[q].push_back(ids[e]);
    }
  }
  for (size_t e = 0; e < ids.size(); ++e) {
    if (v.list_digests[e].has_value()) {
      out.list_digests[ids[e]] = *v.list_digests[e];
    }
  }
  return out;
}

std::vector<ClusterId> Sorted(std::vector<ClusterId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(MrkdTreeTest, RootDigestDeterministic) {
  Fixture f1(50, 0, RevealMode::kFullVector, 3);
  Fixture f2(50, 0, RevealMode::kFullVector, 3);
  EXPECT_EQ(f1.mrkd->root_digest(), f2.mrkd->root_digest());
}

TEST(MrkdTreeTest, RootDependsOnListDigests) {
  Fixture f(50, 0, RevealMode::kFullVector, 5);
  auto tampered_digests = f.list_digests;
  tampered_digests[7].bytes[0] ^= 1;
  MrkdTree other(f.tree.get(), RevealMode::kFullVector, tampered_digests);
  EXPECT_NE(f.mrkd->root_digest(), other.root_digest());
}

TEST(MrkdTreeTest, RootDependsOnRevealMode) {
  Fixture f(30, 0, RevealMode::kFullVector, 7);
  MrkdTree dm(f.tree.get(), RevealMode::kDimMerkle, f.list_digests);
  EXPECT_NE(f.mrkd->root_digest(), dm.root_digest());
}

TEST(MrkdSearchTest, CandidatesAreRangeSupersets) {
  Fixture f(200, 5, RevealMode::kFullVector, 11);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  ASSERT_EQ(out.candidates.size(), 5u);
  for (size_t q = 0; q < 5; ++q) {
    std::set<ClusterId> got(out.candidates[q].begin(), out.candidates[q].end());
    for (size_t c = 0; c < f.clusters.size(); ++c) {
      double d = ann::SquaredL2(f.queries[q], f.clusters.row(c), kDims);
      if (d <= f.thresholds_sq[q]) {
        EXPECT_TRUE(got.count(static_cast<ClusterId>(c)))
            << "query " << q << " missing in-range cluster " << c;
      }
    }
  }
}

TEST(MrkdSearchTest, SharedAndUnsharedAgreeOnCandidates) {
  Fixture f(150, 6, RevealMode::kFullVector, 13);
  auto shared = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto unshared = MrkdSearchUnshared(*f.mrkd, f.queries, f.thresholds_sq);
  for (size_t q = 0; q < 6; ++q) {
    std::set<ClusterId> a(shared.candidates[q].begin(), shared.candidates[q].end());
    std::set<ClusterId> b(unshared.candidates[q].begin(),
                          unshared.candidates[q].end());
    EXPECT_EQ(a, b) << "query " << q;
  }
  EXPECT_LE(shared.vo.size(), unshared.vo.size());
}

TEST(MrkdSearchTest, SharingShrinksVoWithManyQueries) {
  Fixture f(400, 40, RevealMode::kFullVector, 17);
  auto shared = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto unshared = MrkdSearchUnshared(*f.mrkd, f.queries, f.thresholds_sq);
  EXPECT_LT(shared.vo.size(), unshared.vo.size() / 2)
      << "node sharing should at least halve the BoVW VO at 40 queries";
  EXPECT_GT(shared.stats.ShareRatio(), 0.1);
}

TEST(MrkdVerifyTest, HonestVoVerifiesAndRootMatches) {
  Fixture f(200, 8, RevealMode::kFullVector, 19);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  TreeReplay v = ReplayTree(out.vo, f.AllCommitments(), f, f.thresholds_sq,
                            /*shared=*/true);
  ASSERT_TRUE(v.status.ok()) << v.status.message();
  EXPECT_EQ(v.root, f.mrkd->root_digest());
  for (size_t q = 0; q < 8; ++q) {
    EXPECT_EQ(v.candidates[q], Sorted(out.candidates[q]));
  }
  // Every candidate's list digest was captured.
  for (const auto& cands : v.candidates) {
    for (ClusterId c : cands) {
      ASSERT_TRUE(v.list_digests.count(c));
      EXPECT_EQ(v.list_digests[c], f.list_digests[c]);
    }
  }
}

TEST(MrkdVerifyTest, UnsharedVoVerifies) {
  Fixture f(100, 4, RevealMode::kFullVector, 23);
  auto out = MrkdSearchUnshared(*f.mrkd, f.queries, f.thresholds_sq);
  TreeReplay v = ReplayTree(out.vo, f.AllCommitments(), f, f.thresholds_sq,
                            /*shared=*/false);
  ASSERT_TRUE(v.status.ok()) << v.status.message();
  EXPECT_EQ(v.root, f.mrkd->root_digest());
}

TEST(MrkdVerifyTest, BitFlipsAnywhereAreRejected) {
  Fixture f(80, 3, RevealMode::kFullVector, 29);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto commitments = f.AllCommitments();
  Rng rng(31);
  int rejected = 0, root_mismatch = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    Bytes tampered = out.vo;
    size_t pos = rng.NextBounded(tampered.size());
    tampered[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    TreeReplay v = ReplayTree(tampered, commitments, f, f.thresholds_sq, true);
    if (!v.status.ok()) {
      ++rejected;
    } else if (v.root != f.mrkd->root_digest()) {
      ++root_mismatch;
    }
  }
  // Every flip must be caught either by replay/parse errors (trailing bytes
  // included) or by a root digest mismatch.
  EXPECT_EQ(rejected + root_mismatch, trials);
}

TEST(MrkdVerifyTest, MissingCommitmentRejected) {
  Fixture f(60, 2, RevealMode::kFullVector, 37);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto commitments = f.AllCommitments();
  // Remove one commitment that is needed.
  ASSERT_FALSE(out.candidates[0].empty());
  commitments.erase(out.candidates[0][0]);
  TreeReplay v = ReplayTree(out.vo, commitments, f, f.thresholds_sq, true);
  EXPECT_FALSE(v.status.ok());
}

TEST(MrkdVerifyTest, ThresholdMismatchChangesRootOrFails) {
  // A client replaying with different thresholds must not silently accept.
  Fixture f(120, 4, RevealMode::kFullVector, 41);
  auto out = MrkdSearchShared(*f.mrkd, f.queries, f.thresholds_sq);
  auto bigger = f.thresholds_sq;
  for (auto& t : bigger) t *= 16.0;
  TreeReplay v = ReplayTree(out.vo, f.AllCommitments(), f, bigger, true);
  // With larger thresholds the client expects subtrees that the VO pruned.
  EXPECT_FALSE(v.status.ok() && v.root == f.mrkd->root_digest());
}

// --------------------------------------------------------------------------
// Incremental digest refresh (used by core/update.h)
// --------------------------------------------------------------------------

TEST(MrkdRefreshTest, MatchesFullRebuild) {
  Fixture f(100, 0, RevealMode::kFullVector, 67);
  // Change a few list digests, refresh paths, compare against a tree built
  // from scratch over the new digests.
  auto new_digests = f.list_digests;
  for (ClusterId c : {3u, 42u, 97u}) {
    new_digests[c].bytes[5] ^= 0xAA;
  }
  MrkdTree incremental(f.tree.get(), RevealMode::kFullVector, f.list_digests);
  // The tree borrows the digest vector; mutate it in place then refresh.
  f.list_digests = new_digests;
  size_t rehashed = 0;
  for (ClusterId c : {3u, 42u, 97u}) {
    size_t n = incremental.RefreshListDigest(c);
    EXPECT_GT(n, 0u);
    rehashed += n;
  }
  MrkdTree rebuilt(f.tree.get(), RevealMode::kFullVector, new_digests);
  EXPECT_EQ(incremental.root_digest(), rebuilt.root_digest());
  // Path refresh touches far fewer nodes than the whole tree.
  EXPECT_LT(rehashed, f.tree->nodes().size());
}

TEST(MrkdRefreshTest, UnknownClusterIsNoop) {
  Fixture f(20, 0, RevealMode::kFullVector, 71);
  MrkdTree tree(f.tree.get(), RevealMode::kFullVector, f.list_digests);
  Digest before = tree.root_digest();
  EXPECT_EQ(tree.RefreshListDigest(9999), 0u);
  EXPECT_EQ(tree.root_digest(), before);
}

// --------------------------------------------------------------------------
// Cluster reveals (Optimization A)
// --------------------------------------------------------------------------

TEST(RevealTest, FullRevealRoundTrip) {
  Fixture f(10, 0, RevealMode::kFullVector, 43);
  ClusterReveal rev = BuildReveal(RevealMode::kFullVector, 3,
                                  f.clusters.row(3), kDims, false, {}, {});
  EXPECT_TRUE(rev.full);
  Digest commitment;
  ASSERT_TRUE(VerifyReveal(RevealMode::kFullVector, kDims, rev, &commitment).ok());
  EXPECT_EQ(commitment, f.mrkd->cluster_commitment(3));
}

TEST(RevealTest, PartialRevealVerifiesAgainstDimMerkleCommitment) {
  // Needs several kDimBlock-sized blocks for a partial reveal to exist.
  const size_t dims = 64;
  Rng rng(47);
  std::vector<float> cluster(dims), query(dims);
  for (size_t d = 0; d < dims; ++d) {
    cluster[d] = static_cast<float>(rng.NextGaussian());
    query[d] = static_cast<float>(rng.NextGaussian() + 3.0);
  }
  double bound = 1.0;  // far below the true squared distance (~dims * 9)
  ClusterReveal rev = BuildReveal(RevealMode::kDimMerkle, 2, cluster.data(),
                                  dims, false, {query.data()}, {bound});
  ASSERT_FALSE(rev.full) << "partial reveal expected for a distant cluster";
  EXPECT_LT(rev.dim_indices.size(), dims);
  EXPECT_EQ(rev.dim_indices.size() % kDimBlock, 0u) << "block-aligned";
  EXPECT_GT(PartialDistanceSq(query.data(), rev.dim_indices, rev.dim_values),
            bound);

  Digest commitment;
  ASSERT_TRUE(VerifyReveal(RevealMode::kDimMerkle, dims, rev, &commitment).ok());
  EXPECT_EQ(commitment, ClusterCommitment(RevealMode::kDimMerkle, 2,
                                          cluster.data(), dims));
}

TEST(RevealTest, PartialRevealFallsBackToFullWhenBoundUnreachable) {
  Fixture f(10, 0, RevealMode::kDimMerkle, 53);
  // Bound larger than the full squared distance: exclusion is impossible,
  // so BuildReveal must return the full vector.
  std::vector<float> q(f.clusters.row(1), f.clusters.row(1) + kDims);
  double full_dist = ann::SquaredL2(q.data(), f.clusters.row(4), kDims);
  ClusterReveal rev =
      BuildReveal(RevealMode::kDimMerkle, 4, f.clusters.row(4), kDims, false,
                  {q.data()}, {full_dist * 2});
  EXPECT_TRUE(rev.full);
}

TEST(RevealTest, TamperedPartialValueRejected) {
  const size_t dims = 64;
  Rng rng(59);
  std::vector<float> cluster(dims), q(dims, 10.0f);
  for (auto& v : cluster) v = static_cast<float>(rng.NextGaussian());
  ClusterReveal rev = BuildReveal(RevealMode::kDimMerkle, 6, cluster.data(),
                                  dims, false, {q.data()}, {1.0});
  ASSERT_FALSE(rev.full);
  Digest original = ClusterCommitment(RevealMode::kDimMerkle, 6,
                                      cluster.data(), dims);
  rev.dim_values[0] += 1.0f;
  Digest commitment;
  Status s = VerifyReveal(RevealMode::kDimMerkle, dims, rev, &commitment);
  // Either the proof fails structurally or the commitment changes.
  EXPECT_TRUE(!s.ok() || commitment != original);
}

TEST(RevealTest, SerializationRoundTrip) {
  const size_t dims = 64;
  Rng rng(61);
  std::vector<float> c0(dims), c1(dims), q(dims, 3.0f);
  for (auto& v : c0) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : c1) v = static_cast<float>(rng.NextGaussian());
  std::vector<ClusterReveal> reveals;
  reveals.push_back(
      BuildReveal(RevealMode::kDimMerkle, 0, c0.data(), dims, true, {}, {}));
  reveals.push_back(BuildReveal(RevealMode::kDimMerkle, 1, c1.data(), dims,
                                false, {q.data()}, {0.5}));
  ASSERT_FALSE(reveals[1].full);
  ByteWriter w;
  SerializeReveals(reveals, w);
  ByteReader r(w.bytes());
  std::vector<ClusterReveal> back;
  ASSERT_TRUE(DeserializeReveals(r, dims, &back).ok());
  ASSERT_TRUE(r.AtEnd());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, 0u);
  EXPECT_TRUE(back[0].full);
  EXPECT_EQ(back[0].coords, reveals[0].coords);
  EXPECT_FALSE(back[1].full);
  EXPECT_EQ(back[1].dim_indices, reveals[1].dim_indices);
  EXPECT_EQ(back[1].dim_values, reveals[1].dim_values);
  EXPECT_EQ(back[1].proof, reveals[1].proof);
}

TEST(RevealTest, DeserializeRejectsMalformed) {
  ByteWriter w;
  w.PutVarint(1);   // one reveal
  w.PutVarint(0);   // id
  w.PutU8(0);       // partial
  w.PutVarint(99);  // dim count > dims
  ByteReader r(w.bytes());
  std::vector<ClusterReveal> out;
  EXPECT_FALSE(DeserializeReveals(r, kDims, &out).ok());
}

TEST(PartialDistanceTest, MonotoneInRevealedDims) {
  std::vector<float> q = {1, 2, 3, 4};
  std::vector<float> c = {0, 0, 0, 0};
  double d1 = PartialDistanceSq(q.data(), {3}, {c[3]});
  double d2 = PartialDistanceSq(q.data(), {2, 3}, {c[2], c[3]});
  double d3 = PartialDistanceSq(q.data(), {0, 1, 2, 3}, {0, 0, 0, 0});
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  EXPECT_DOUBLE_EQ(d3, 1 + 4 + 9 + 16);
}

}  // namespace
}  // namespace imageproof::mrkd
