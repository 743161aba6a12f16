// Fault-tolerance tests: load shedding and deadlines under overload,
// shutdown semantics, and injected storage/signing faults through the
// update path. The engine's contract under stress is "explicit errors,
// never indefinite blocking, never a published-but-invalid snapshot" —
// every test here drives one clause of that contract.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "obs/metrics.h"
#include "storage/serializer.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& fi = fault::FaultInjector::Global();
    fi.DisarmAll();
    // Synthetic sites for the unit tests below; arming an unregistered
    // name aborts (see UnknownSiteAbortsLoudly in resilience_test.cc).
    for (const char* site : {"site.a", "site.s", "site.p"}) {
      fi.RegisterSite(site);
    }
  }
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }
};

TEST_F(FaultInjectorTest, DisarmedNeverFires) {
  auto& fi = fault::FaultInjector::Global();
  EXPECT_FALSE(fi.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fault::InjectFault("some.site"));
  EXPECT_EQ(fi.Fired("some.site"), 0u);
}

TEST_F(FaultInjectorTest, AlwaysFiresEveryHit) {
  auto& fi = fault::FaultInjector::Global();
  fi.ArmAlways("site.a");
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fault::InjectFault("site.a"));
  EXPECT_EQ(fi.Hits("site.a"), 10u);
  EXPECT_EQ(fi.Fired("site.a"), 10u);
  // Other sites stay dark.
  EXPECT_FALSE(fault::InjectFault("site.b"));
}

TEST_F(FaultInjectorTest, ScriptedHitsFireExactlyOnSchedule) {
  auto& fi = fault::FaultInjector::Global();
  fi.ArmHits("site.s", {1, 3});
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(fault::InjectFault("site.s"));
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false, false}));
  EXPECT_EQ(fi.Fired("site.s"), 2u);
}

TEST_F(FaultInjectorTest, ProbabilityStreamIsDeterministic) {
  auto& fi = fault::FaultInjector::Global();
  auto run = [&] {
    fi.DisarmAll();
    fi.ArmProbability("site.p", 0.5, 42);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(fault::InjectFault("site.p"));
    return fired;
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b) << "same seed must replay the same firing pattern";
  size_t count = 0;
  for (bool f : a) count += f;
  EXPECT_GT(count, 16u);  // p=0.5 over 64 draws: wildly improbable bounds
  EXPECT_LT(count, 48u);
}

TEST_F(FaultInjectorTest, ByteFaultsFlipAndTruncate) {
  auto& fi = fault::FaultInjector::Global();
  Bytes original(256);
  for (size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<uint8_t>(i);
  }

  fi.ArmAlways("storage.serialize.bitflip");
  Bytes flipped = original;
  fault::InjectByteFaults(&flipped);
  ASSERT_EQ(flipped.size(), original.size());
  size_t diff_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    uint8_t x = flipped[i] ^ original[i];
    while (x) {
      diff_bits += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(diff_bits, 1u) << "bitflip site must flip exactly one bit";

  fi.DisarmAll();
  fi.ArmAlways("storage.serialize.truncate");
  Bytes truncated = original;
  fault::InjectByteFaults(&truncated);
  EXPECT_LT(truncated.size(), original.size());
  EXPECT_GE(truncated.size(), original.size() - 64);
}

// ---------------------------------------------------------------------------
// Engine fixture
// ---------------------------------------------------------------------------

struct EngineFixture {
  core::OwnerOutput owner;
  std::shared_ptr<const core::SpPackage> package;

  explicit EngineFixture(uint64_t seed = 7) {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 150;
    cp.num_clusters = 64;
    cp.seed = seed;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 64;
    cbp.dims = 8;
    owner = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                  std::move(corpus), std::move(blobs));
    package = std::shared_ptr<const core::SpPackage>(std::move(owner.package));
  }

  std::vector<std::vector<float>> Features(uint64_t seed) const {
    return workload::GenerateQueryFeatures(package->codebook, 8, 0.3, seed);
  }
};

class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Global().DisarmAll(); }
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Load shedding and deadlines
// ---------------------------------------------------------------------------

TEST_F(EngineFaultTest, OverloadShedsWithExplicitStatus) {
  EngineFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 4;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  // Pin the single worker inside one query so admission becomes
  // deterministic: one in flight, `queue_capacity` queued, the rest shed.
  fault::FaultInjector::Global().ArmLatencyMs("engine.query.latency", 150);

  auto features = fx.Features(1);
  std::vector<std::future<core::EngineResponse>> futures;
  futures.push_back(engine.Submit(features, 5));
  // Wait until the worker picked the first query up (live queue state, not
  // an obs metric, so this works in IMAGEPROOF_NO_METRICS builds too).
  while (engine.Stats().queue_depth > 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // Offered load at 2x queue capacity: capacity accepted, capacity shed.
  for (size_t i = 0; i < 2 * opts.queue_capacity; ++i) {
    futures.push_back(engine.Submit(fx.Features(2 + i), 5));
  }

  size_t served = 0, shed = 0;
  for (auto& f : futures) {
    core::EngineResponse r = f.get();
    if (r.ok()) {
      ++served;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kOverloaded) << r.status.message();
      EXPECT_TRUE(r.response.vo.tree_vos.empty()) << "shed query carried a VO";
      ++shed;
    }
  }
  EXPECT_EQ(served, 1 + opts.queue_capacity);
  EXPECT_EQ(shed, opts.queue_capacity);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(engine.Stats().queries_shed, opts.queue_capacity);
  }

  // Accepted queries are byte-identical to the serial path: shedding is an
  // admission decision, never a change to what an admitted query computes.
  fault::FaultInjector::Global().DisarmAll();
  core::ServiceProvider sp(fx.package.get());
  Bytes serial = sp.Query(features, 5).vo.Serialize();
  core::EngineResponse again = engine.Submit(features, 5).get();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.response.vo.Serialize(), serial);
}

TEST_F(EngineFaultTest, DeadlineExpiredInQueue) {
  EngineFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 8;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  fault::FaultInjector::Global().ArmLatencyMs("engine.query.latency", 120);

  // First query occupies the worker for >=120ms; the second, with a 5ms
  // deadline, expires while queued behind it.
  auto first = engine.Submit(fx.Features(1), 5);
  while (engine.Stats().queue_depth > 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  core::SubmitOptions so;
  so.deadline = milliseconds(5);
  core::EngineResponse expired = engine.Submit(fx.Features(2), 5, so).get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
      << expired.status.message();
  EXPECT_TRUE(expired.response.vo.tree_vos.empty());
  EXPECT_TRUE(first.get().ok());
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(engine.Stats().deadline_exceeded, 1u);
  }
}

TEST_F(EngineFaultTest, QueryControlStopsBetweenStages) {
  EngineFixture fx;
  core::ServiceProvider sp(fx.package.get());
  // An already-expired control aborts before the first stage.
  core::QueryControl expired(core::QueryControl::Clock::now() -
                             milliseconds(1));
  core::QueryResponse out;
  Status s = sp.Query(fx.Features(3), 5, {}, expired, &out);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);

  // A generous deadline changes nothing about the produced bytes.
  core::QueryControl generous(core::QueryControl::Clock::now() +
                              std::chrono::seconds(60));
  core::QueryResponse with_deadline, without_deadline;
  ASSERT_TRUE(sp.Query(fx.Features(3), 5, {}, generous, &with_deadline).ok());
  ASSERT_TRUE(
      sp.Query(fx.Features(3), 5, {}, core::QueryControl(), &without_deadline)
          .ok());
  EXPECT_EQ(with_deadline.vo.Serialize(), without_deadline.vo.Serialize());
}

// ---------------------------------------------------------------------------
// Shutdown semantics
// ---------------------------------------------------------------------------

TEST_F(EngineFaultTest, SubmitAfterShutdownIsUnavailable) {
  EngineFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 2;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  // A query accepted before shutdown is drained, not dropped.
  auto accepted = engine.Submit(fx.Features(1), 5);
  engine.Shutdown();
  engine.Shutdown();  // idempotent
  EXPECT_TRUE(engine.stopped());
  EXPECT_TRUE(accepted.get().ok());

  core::EngineResponse rejected = engine.Submit(fx.Features(2), 5).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rejected.snapshot, nullptr);

  auto update = engine.InsertImage(fx.owner.private_key, 50000,
                                   bovw::BovwVector{{{1, 2}}}, Bytes{1, 2, 3});
  EXPECT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kUnavailable);

  core::EngineStats stats = engine.Stats();
  EXPECT_TRUE(stats.stopped);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(stats.rejected_unavailable, 2u);
  }
}

TEST_F(EngineFaultTest, ConcurrentShutdownAndSubmitsNeverHang) {
  EngineFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 4;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::atomic<int> resolved{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int q = 0; q < 5; ++q) {
        // Every future must resolve — served, shed, or unavailable.
        (void)engine.Submit(fx.Features(t * 10 + q), 5).get();
        ++resolved;
      }
    });
  }
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    engine.Shutdown();
  });
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(resolved.load(), 15);
}

// ---------------------------------------------------------------------------
// Update faults: retry, rollback, and isolation from readers
// ---------------------------------------------------------------------------

TEST_F(EngineFaultTest, TransientCloneFaultIsRetried) {
  EngineFixture fx;
  core::QueryEngine engine(fx.package, fx.owner.public_params, {});

  // Fail the first clone attempt only; the retry must succeed.
  fault::FaultInjector::Global().ArmHits("engine.update.clone", {0});
  workload::CorpusParams qp;
  qp.num_clusters = 64;
  auto ins = engine.InsertImage(fx.owner.private_key, 40000,
                                workload::GenerateQueryBovw(qp, 10, 1),
                                workload::GenerateImageBlob(40000));
  ASSERT_TRUE(ins.ok()) << ins.status().message();
  EXPECT_EQ(engine.CurrentSnapshot()->version, 1u);
  if (obs::kMetricsEnabled) {
    core::EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.update_retries, 1u);
    EXPECT_EQ(stats.updates_applied, 1u);
    EXPECT_EQ(stats.update_failures, 0u);
  }
}

TEST_F(EngineFaultTest, StorageBitFlipRollsBackThenRecovers) {
  EngineFixture fx;
  core::QueryEngine engine(fx.package, fx.owner.public_params, {});
  auto& fi = fault::FaultInjector::Global();

  // Every serialize emits one flipped bit: all attempts fail, nothing is
  // published, and the old snapshot keeps serving verifiable responses.
  fi.ArmAlways("storage.serialize.bitflip");
  workload::CorpusParams qp;
  qp.num_clusters = 64;
  auto ins = engine.InsertImage(fx.owner.private_key, 40001,
                                workload::GenerateQueryBovw(qp, 10, 2),
                                workload::GenerateImageBlob(40001));
  EXPECT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), StatusCode::kCorrupted)
      << ins.status().message();
  EXPECT_EQ(engine.CurrentSnapshot()->version, 0u) << "faulty update published";
  EXPECT_GE(fi.Fired("storage.serialize.bitflip"),
            static_cast<uint64_t>(engine.options().update_max_attempts));

  auto features = fx.Features(9);
  core::EngineResponse resp = engine.Submit(features, 5).get();
  ASSERT_TRUE(resp.ok());
  core::Client client(resp.snapshot->params);
  EXPECT_TRUE(client.Verify(features, 5, resp.response.vo).ok())
      << "rolled-back update corrupted the served snapshot";

  // Fault cleared: the same update now applies.
  fi.DisarmAll();
  ins = engine.InsertImage(fx.owner.private_key, 40001,
                           workload::GenerateQueryBovw(qp, 10, 2),
                           workload::GenerateImageBlob(40001));
  ASSERT_TRUE(ins.ok()) << ins.status().message();
  EXPECT_EQ(engine.CurrentSnapshot()->version, 1u);
}

TEST_F(EngineFaultTest, TruncationFaultRollsBack) {
  EngineFixture fx;
  core::QueryEngine engine(fx.package, fx.owner.public_params, {});
  fault::FaultInjector::Global().ArmAlways("storage.serialize.truncate");

  auto del = engine.DeleteImage(fx.owner.private_key, 1);
  EXPECT_FALSE(del.ok());
  EXPECT_EQ(del.status().code(), StatusCode::kCorrupted)
      << del.status().message();
  EXPECT_EQ(engine.CurrentSnapshot()->version, 0u);
}

// A served package whose corpus no longer matches the index it was built
// into: the update clone re-derives every posting chain from the corpus, so
// its root diverges from the signed one and the update is refused. The
// served ADS is untouched, so version 0 keeps answering verifying queries.
TEST_F(EngineFaultTest, CorpusDivergingFromIndexRollsBack) {
  EngineFixture fx;
  core::SpPackage& served = const_cast<core::SpPackage&>(*fx.package);
  ASSERT_FALSE(served.corpus[0].second.entries.empty());
  served.corpus[0].second.entries[0].second += 1;
  core::QueryEngine engine(fx.package, fx.owner.public_params, {});

  workload::CorpusParams qp;
  qp.num_clusters = 64;
  auto ins = engine.InsertImage(fx.owner.private_key, 40003,
                                workload::GenerateQueryBovw(qp, 10, 4),
                                workload::GenerateImageBlob(40003));
  ASSERT_FALSE(ins.ok()) << "update over a diverged corpus was published";
  EXPECT_EQ(ins.status().code(), StatusCode::kCorrupted)
      << ins.status().message();
  EXPECT_EQ(engine.CurrentSnapshot()->version, 0u);

  auto features = fx.Features(13);
  core::EngineResponse resp = engine.Submit(features, 5).get();
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_EQ(resp.snapshot->version, 0u);
  core::Client client(resp.snapshot->params);
  EXPECT_TRUE(client.Verify(features, 5, resp.response.vo).ok());
}

// The update clone adopts the served snapshot's codebook piece only when
// the re-encoded codebook and trees sections are the bytes the piece was
// decoded from. A codebook coordinate or a tree split corrupted in memory
// changes those bytes, so the clone decodes them instead, its root
// diverges from the signed one, and nothing is published.
TEST_F(EngineFaultTest, CorruptedCodebookPieceRollsBack) {
  EngineFixture fx;
  auto decoded = storage::DeserializeSpPackage(
      storage::SerializeSpPackage(*fx.package));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  std::shared_ptr<const core::SpPackage> served(std::move(*decoded));
  ASSERT_TRUE(served->codebook_ads->sections.has_value());
  core::QueryEngine engine(served, fx.owner.public_params, {});

  float& coordinate = const_cast<float&>(served->codebook.row(3)[1]);
  ann::RkdNode& root = const_cast<ann::RkdNode&>(
      served->forest->trees()[2]->nodes()[0]);
  ASSERT_FALSE(root.IsLeaf());
  workload::CorpusParams qp;
  qp.num_clusters = 64;
  for (float* corrupted : {&coordinate, &root.split_value}) {
    const float saved = *corrupted;
    *corrupted += 1.0f;
    auto ins = engine.InsertImage(fx.owner.private_key, 40004,
                                  workload::GenerateQueryBovw(qp, 10, 5),
                                  workload::GenerateImageBlob(40004));
    *corrupted = saved;
    ASSERT_FALSE(ins.ok()) << "update over a corrupted codebook was published";
    EXPECT_EQ(ins.status().code(), StatusCode::kCorrupted)
        << ins.status().message();
    EXPECT_EQ(engine.CurrentSnapshot()->version, 0u);
  }

  auto features = fx.Features(15);
  core::EngineResponse resp = engine.Submit(features, 5).get();
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_EQ(resp.snapshot->version, 0u);
  core::Client client(resp.snapshot->params);
  EXPECT_TRUE(client.Verify(features, 5, resp.response.vo).ok());

  // Intact, the piece is adopted: the new snapshot shares it.
  auto ins = engine.InsertImage(fx.owner.private_key, 40004,
                                workload::GenerateQueryBovw(qp, 10, 5),
                                workload::GenerateImageBlob(40004));
  ASSERT_TRUE(ins.ok()) << ins.status().message();
  EXPECT_EQ(engine.CurrentSnapshot()->package->codebook_ads,
            served->codebook_ads);
}

TEST_F(EngineFaultTest, SigningFaultIsCaughtBeforePublish) {
  EngineFixture fx;
  core::QueryEngine engine(fx.package, fx.owner.public_params, {});

  // Corrupt the fresh signature on the first attempt only: the pre-publish
  // verification must catch it (rollback), and the retry must publish a
  // snapshot whose signature verifies.
  fault::FaultInjector::Global().ArmHits("engine.update.sign", {0});
  workload::CorpusParams qp;
  qp.num_clusters = 64;
  auto ins = engine.InsertImage(fx.owner.private_key, 40002,
                                workload::GenerateQueryBovw(qp, 10, 3),
                                workload::GenerateImageBlob(40002));
  ASSERT_TRUE(ins.ok()) << ins.status().message();
  ASSERT_EQ(engine.CurrentSnapshot()->version, 1u);

  auto features = fx.Features(11);
  core::EngineResponse resp = engine.Submit(features, 5).get();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.snapshot->version, 1u);
  core::Client client(resp.snapshot->params);
  EXPECT_TRUE(client.Verify(features, 5, resp.response.vo).ok());
}

TEST_F(EngineFaultTest, QueriesRacingFaultyUpdatesAlwaysVerify) {
  EngineFixture fx;
  core::EngineOptions opts;
  opts.num_workers = 2;
  core::QueryEngine engine(fx.package, fx.owner.public_params, opts);

  // Probabilistic storage faults plus update latency, racing readers.
  auto& fi = fault::FaultInjector::Global();
  fi.ArmProbability("storage.serialize.bitflip", 0.4, 1234);
  fi.ArmLatencyMs("engine.update.latency", 2);

  std::atomic<int> verify_failures{0};
  std::atomic<int> updates_applied{0};
  std::thread writer([&] {
    workload::CorpusParams qp;
    qp.num_clusters = 64;
    for (int u = 0; u < 6; ++u) {
      bovw::ImageId id = 60000 + u;
      auto ins = engine.InsertImage(fx.owner.private_key, id,
                                    workload::GenerateQueryBovw(qp, 10, 50 + u),
                                    workload::GenerateImageBlob(id));
      if (ins.ok()) ++updates_applied;
      // Failed attempts rolled back; either way the published snapshot
      // must stay serveable, which the readers assert.
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int q = 0; q < 8; ++q) {
        auto features = fx.Features(r * 100 + q);
        core::EngineResponse resp = engine.Submit(features, 5).get();
        if (!resp.ok()) continue;  // shed/deadline: no VO to check
        core::Client client(resp.snapshot->params);
        if (!client.Verify(features, 5, resp.response.vo).ok()) {
          ++verify_failures;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(verify_failures.load(), 0)
      << "a query served across faulty updates failed verification";
  EXPECT_EQ(engine.CurrentSnapshot()->version,
            static_cast<uint64_t>(updates_applied.load()));
}

}  // namespace
}  // namespace imageproof
