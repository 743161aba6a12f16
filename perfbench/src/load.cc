#include "load.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/stopwatch.h"
#include "core/client.h"
#include "crypto/hasher.h"
#include "net/client.h"
#include "shard/composite_client.h"
#include "storage/package_store.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Shed, deadline and transport outcomes are operational failures; anything
// else from an honest server (a rejected proof, a malformed frame) means
// the run is incorrect.
bool IsOperational(const Status& s) {
  return s.code() == StatusCode::kOverloaded ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kUnavailable;
}

struct EngineCounters {
  uint64_t cache_hits = 0, cache_misses = 0, memo_hits = 0, memo_builds = 0;
};

EngineCounters ReadCounters(Stack& st) {
  EngineCounters c;
  auto add = [&c](const core::EngineStats& s) {
    c.cache_hits += s.cache_hits;
    c.cache_misses += s.cache_misses;
    c.memo_hits += s.memo_hits;
    c.memo_builds += s.memo_builds;
  };
  if (st.engine) add(st.engine->Stats());
  for (shard::LocalShardBackend* b : st.shard_backends) add(b->engine().Stats());
  return c;
}

// Per-client tallies, merged into the PhaseResult after the join.
struct ClientTally {
  std::vector<double> latency_ms, rtt_ms, verify_ms;
  uint64_t attempted = 0, failed = 0, rejected = 0, bytes = 0;
  std::string first_error;

  void Fail(const Status& s) {
    if (IsOperational(s)) {
      ++failed;
    } else {
      ++rejected;
    }
    if (first_error.empty()) first_error = s.message();
  }
};

// One verified query on `client`. Returns false when the connection should
// be abandoned (transport failure).
bool OneQuery(Stack& st, const Spec& spec, net::NetClient& client,
              const std::vector<std::vector<float>>& q, bool traced,
              ClientTally& t) {
  ++t.attempted;
  const Clock::time_point start = Clock::now();
  if (st.workload == Workload::kSharded4) {
    Result<Bytes> composite = client.QueryComposite(q, spec.k, kDeadlineMs);
    if (!composite.ok()) {
      t.Fail(composite.status());
      return composite.status().code() != StatusCode::kUnavailable;
    }
    const Clock::time_point got = Clock::now();
    shard::CompositeClient verifier(st.client_params);
    auto verified = verifier.VerifyComposite(q, spec.k, *composite);
    if (!verified.ok()) {
      t.Fail(verified.status());
      return true;
    }
    const Clock::time_point done = Clock::now();
    t.latency_ms.push_back(MsBetween(start, done));
    t.bytes += composite->size() + net::kFrameHeaderBytes;
    if (traced) {
      t.rtt_ms.push_back(MsBetween(start, got));
      t.verify_ms.push_back(MsBetween(got, done));
    }
    return true;
  }
  if (!traced) {
    Result<net::NetQueryResult> r = client.Query(q, spec.k, kDeadlineMs);
    if (!r.ok()) {
      t.Fail(r.status());
      return r.status().code() != StatusCode::kUnavailable;
    }
    t.latency_ms.push_back(MsBetween(start, Clock::now()));
    t.bytes += r->response_frame_bytes;
    return true;
  }
  // Traced: the steps NetClient::Query takes, as separate calls with a span
  // around the round trip and one around decode + verify.
  Result<net::ResponseFrame> relay = client.QueryForRelay(q, spec.k, kDeadlineMs);
  if (!relay.ok()) {
    t.Fail(relay.status());
    return relay.status().code() != StatusCode::kUnavailable;
  }
  const Clock::time_point got = Clock::now();
  core::QueryVO vo;
  if (Status s = core::QueryVO::Deserialize(relay->vo_bytes, &vo); !s.ok()) {
    t.Fail(s);
    return true;
  }
  core::PublicParams params = st.client_params;
  params.root_signature = relay->root_signature;
  auto verified = core::Client(std::move(params)).Verify(q, spec.k, vo);
  if (!verified.ok()) {
    t.Fail(verified.status());
    return true;
  }
  const Clock::time_point done = Clock::now();
  t.latency_ms.push_back(MsBetween(start, done));
  t.rtt_ms.push_back(MsBetween(start, got));
  t.verify_ms.push_back(MsBetween(got, done));
  return true;
}

void RunOwner(Stack& st, const Spec& spec, const Inputs& in,
              Clock::time_point start, double seconds, OwnerCursor& cursor,
              PhaseResult& out) {
  namespace fs = std::filesystem;
  const size_t due_count = static_cast<size_t>(seconds * spec.update_hz);
  for (size_t i = 0; i < due_count; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / spec.update_hz));
    std::this_thread::sleep_until(due);
    out.gen_lag_ms.push_back(MsBetween(due, Clock::now()));
    ++out.updates_attempted;
    const bool insert = cursor.ops++ % 2 == 0;
    const bovw::ImageId id =
        insert ? cursor.next_insert++ : cursor.next_delete++;
    Result<core::UpdateStats> r =
        insert ? st.engine->InsertImage(
                     st.owner_key, id, NewImageWords(in, id),
                     workload::GenerateImageBlob(id, spec.payload_bytes))
               : st.engine->DeleteImage(st.owner_key, id);
    out.update_ms.push_back(MsBetween(due, Clock::now()));
    if (!r.ok()) {
      ++out.updates_failed;
      if (out.first_error.empty()) out.first_error = r.status().message();
      continue;
    }
    (insert ? out.acked_inserts : out.acked_deletes).push_back(id);
    // The owner is the only writer, so the served version is this update's
    // epoch; its file and the CURRENT pointer are what the update added.
    const uint64_t epoch = st.engine->CurrentSnapshot()->version;
    std::error_code ec;
    out.update_write_bytes +=
        fs::file_size(st.dir + "/" + storage::PackageStore::EpochFileName(epoch), ec);
    out.update_write_bytes += fs::file_size(st.dir + "/CURRENT", ec);
  }
}

}  // namespace

PhaseResult RunPhase(Stack& st, const Spec& spec, const Inputs& in,
                     double seconds, bool traced, uint64_t stream_base,
                     OwnerCursor& owner) {
  PhaseResult out;
  const unsigned connections = spec.Connections(st.workload);
  const EngineCounters before = ReadCounters(st);
  std::vector<ClientTally> tallies(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      auto client = net::NetClient::Connect("127.0.0.1", st.server->port(),
                                            st.client_params);
      if (!client.ok()) {
        ++t.attempted;
        t.Fail(client.status());
        return;
      }
      QueryStream queries(st.workload, spec, in, stream_base + c);
      while (Clock::now() < end) {
        if (!OneQuery(st, spec, *client, queries.Next(), traced, t)) break;
      }
    });
  }
  if (st.workload == Workload::kUpdateMixed) {
    RunOwner(st, spec, in, start, seconds, owner, out);
  }
  for (std::thread& th : threads) th.join();
  out.wall_s = MsBetween(start, Clock::now()) / 1000.0;

  for (ClientTally& t : tallies) {
    out.latency_ms.insert(out.latency_ms.end(), t.latency_ms.begin(),
                          t.latency_ms.end());
    out.span_rtt_ms.insert(out.span_rtt_ms.end(), t.rtt_ms.begin(), t.rtt_ms.end());
    out.span_verify_ms.insert(out.span_verify_ms.end(), t.verify_ms.begin(),
                              t.verify_ms.end());
    out.queries_attempted += t.attempted;
    out.queries_failed += t.failed;
    out.rejected += t.rejected;
    out.response_bytes += t.bytes;
    if (out.first_error.empty()) out.first_error = t.first_error;
  }
  const EngineCounters after = ReadCounters(st);
  out.cache_hits = after.cache_hits - before.cache_hits;
  out.cache_misses = after.cache_misses - before.cache_misses;
  out.memo_hits = after.memo_hits - before.memo_hits;
  out.memo_builds = after.memo_builds - before.memo_builds;
  return out;
}

bool WarmUp(Stack& st, const Spec& spec,
            const std::vector<std::vector<std::vector<float>>>& queries) {
  auto client = net::NetClient::Connect("127.0.0.1", st.server->port(),
                                        st.client_params);
  if (!client.ok()) {
    std::fprintf(stderr, "perfbench: warm-up connect: %s\n",
                 client.status().message().c_str());
    return false;
  }
  ClientTally t;
  for (const auto& q : queries) OneQuery(st, spec, *client, q, false, t);
  if (t.failed + t.rejected > 0) {
    std::fprintf(stderr, "perfbench: warm-up query failed: %s\n",
                 t.first_error.c_str());
    return false;
  }
  return true;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

}  // namespace perfbench
