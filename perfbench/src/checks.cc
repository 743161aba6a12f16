#include "checks.h"

#include <cstdio>

#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "load.h"
#include "net/client.h"
#include "shard/composite_client.h"
#include "storage/package_store.h"

namespace perfbench {

namespace {

bool Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  return false;
}

// The first queries measured client 0 sent.
std::vector<std::vector<std::vector<float>>> MeasuredSample(Stack& st,
                                                            const Spec& spec,
                                                            const Inputs& in) {
  std::vector<std::vector<std::vector<float>>> sample;
  QueryStream queries(st.workload, spec, in, kMeasuredStream);
  for (size_t i = 0; i < spec.check_sample; ++i) sample.push_back(queries.Next());
  return sample;
}

}  // namespace

bool CheckServedMatchesColdServe(Stack& st, const Spec& spec, const Inputs& in,
                                 size_t* cache_hits) {
  *cache_hits = 0;
  auto client = net::NetClient::Connect("127.0.0.1", st.server->port(),
                                        st.client_params);
  if (!client.ok()) return Fail("connect: " + client.status().message());
  core::QueryEngine& engine = st.front_engine();
  for (const auto& q : MeasuredSample(st, spec, in)) {
    const uint64_t hits_before = engine.Stats().cache_hits;
    auto relay = client->QueryForRelay(q, spec.k, kDeadlineMs);
    if (!relay.ok()) return Fail("relay: " + relay.status().message());
    if (engine.Stats().cache_hits > hits_before) ++*cache_hits;

    core::QueryVO vo;
    if (Status s = core::QueryVO::Deserialize(relay->vo_bytes, &vo); !s.ok()) {
      return Fail("served VO does not decode: " + s.message());
    }
    core::PublicParams params = st.client_params;
    params.root_signature = relay->root_signature;
    auto verified = core::Client(params).Verify(q, spec.k, vo);
    if (!verified.ok()) return Fail("served VO rejected: " + verified.status().message());

    // Cold serve on the snapshot the engine serves now (the owner is
    // stopped, so it is the one the relay was answered from).
    const auto snap = engine.CurrentSnapshot();
    if (snap->params.root_signature != relay->root_signature) {
      return Fail("served root signature is not the current snapshot's");
    }
    core::QueryResponse cold;
    Status qs = core::ServiceProvider(snap->package.get())
                    .Query(q, spec.k, {}, {}, core::ServeOptions(), &cold);
    if (!qs.ok()) return Fail("cold serve: " + qs.message());
    if (cold.vo.Serialize() != relay->vo_bytes) {
      return Fail("served VO differs from a cold serve of the same query");
    }
  }
  return true;
}

bool CheckShardedMatchesUnsharded(Stack& st, const Spec& spec, const Inputs& in) {
  core::OwnerOutput ref = core::BuildDeployment(
      spec.DeploymentConfig(), in.codebook, in.corpus, in.blobs, kOwnerKeySeed);
  core::ServiceProvider sp(ref.package.get());
  core::Client ref_client(ref.public_params);
  core::ServeOptions settled;
  settled.settle_exact_topk = true;

  auto client = net::NetClient::Connect("127.0.0.1", st.server->port(),
                                        st.client_params);
  if (!client.ok()) return Fail("connect: " + client.status().message());
  shard::CompositeClient verifier(st.client_params);
  for (const auto& q : MeasuredSample(st, spec, in)) {
    auto composite = client->QueryComposite(q, spec.k, kDeadlineMs);
    if (!composite.ok()) return Fail("composite: " + composite.status().message());
    auto merged = verifier.VerifyComposite(q, spec.k, *composite);
    if (!merged.ok()) return Fail("composite rejected: " + merged.status().message());

    core::QueryResponse resp;
    Status qs = sp.Query(q, spec.k, {}, {}, settled, &resp);
    if (!qs.ok()) return Fail("unsharded serve: " + qs.message());
    auto single = ref_client.Verify(q, spec.k, resp.vo);
    if (!single.ok()) return Fail("unsharded VO rejected: " + single.status().message());
    if (!single->topk_scores_exact) return Fail("unsharded scores not exact");
    if (single->topk.size() != merged->topk.size()) {
      return Fail("merged result count differs from the unsharded serve");
    }
    for (size_t i = 0; i < single->topk.size(); ++i) {
      if (single->topk[i].id != merged->topk[i].id ||
          single->topk[i].score != merged->topk[i].score) {
        return Fail("merged rank " + std::to_string(i) +
                    " differs from the unsharded serve");
      }
    }
  }
  return true;
}

bool CheckDurability(Stack& st, const std::vector<bovw::ImageId>& inserts,
                     const std::vector<bovw::ImageId>& deletes) {
  const auto snap = st.engine->CurrentSnapshot();
  storage::OpenOptions oo;
  oo.params = &snap->params;
  uint64_t epoch = 0;
  auto disk = storage::PackageStore::OpenCurrent(st.dir, oo, &epoch);
  if (!disk.ok()) return Fail("reopen CURRENT: " + disk.status().message());
  if (epoch != snap->version) return Fail("CURRENT is not the last acknowledged epoch");
  if ((*disk)->RootDigest() != snap->package->RootDigest()) {
    return Fail("CURRENT root differs from the served snapshot's");
  }
  for (bovw::ImageId id : inserts) {
    bool found = false;
    Bytes data, sig;
    Status s = (*disk)->GetImage(id, &found, &data, &sig);
    if (!s.ok() || !found) return Fail("acknowledged insert missing after reopen");
  }
  for (bovw::ImageId id : deletes) {
    bool found = false;
    Bytes data, sig;
    Status s = (*disk)->GetImage(id, &found, &data, &sig);
    if (!s.ok() || found) return Fail("acknowledged delete present after reopen");
  }
  return true;
}

}  // namespace perfbench
