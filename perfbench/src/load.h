// Load generation: closed-loop query clients over loopback TCP, each
// verifying every response, plus the open-loop owner stream of
// update_mixed.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stack.h"

namespace perfbench {

// Request deadline sent with every query. Far above any honest latency, so
// a deadline error means the stack stalled.
inline constexpr uint32_t kDeadlineMs = 30000;

// Stream ids keep the queries of different phases distinct.
inline constexpr uint64_t kMeasuredStream = 0;
inline constexpr uint64_t kTracedStream = 100;
inline constexpr uint64_t kWarmStream = 200;
inline constexpr uint64_t kReplayStream = 300;

// Where the owner stream continues: fresh insert ids and the next original
// image to delete, carried across phases of one run.
struct OwnerCursor {
  bovw::ImageId next_insert = 0;
  bovw::ImageId next_delete = 0;
  uint64_t ops = 0;
};

struct PhaseResult {
  double wall_s = 0;
  std::vector<double> latency_ms;  // request sent -> response verified
  uint64_t queries_attempted = 0;
  uint64_t queries_failed = 0;  // shed, deadline, transport
  uint64_t rejected = 0;        // verification rejections: run is incorrect
  uint64_t response_bytes = 0;  // frames of verified queries
  // Owner stream (update_mixed only).
  std::vector<double> update_ms;   // from due time to acknowledgement
  std::vector<double> gen_lag_ms;  // how late each update was issued
  uint64_t updates_attempted = 0;
  uint64_t updates_failed = 0;
  uint64_t update_write_bytes = 0;  // new epoch files + CURRENT, acked only
  std::vector<bovw::ImageId> acked_inserts;
  std::vector<bovw::ImageId> acked_deletes;
  // Engine counter deltas (summed over shard engines on sharded_4).
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t memo_hits = 0, memo_builds = 0;
  // Traced phases only: the round trip, and decode + verify, under load.
  std::vector<double> span_rtt_ms, span_verify_ms;
  std::string first_error;
};

// Runs the workload's traffic for `seconds`. With `traced`, each query
// records a round-trip span and a decode + verify span; a single-deployment
// query then runs as the separate calls NetClient::Query makes internally.
PhaseResult RunPhase(Stack& st, const Spec& spec, const Inputs& in,
                     double seconds, bool traced, uint64_t stream_base,
                     OwnerCursor& owner);

// Sends `queries` serially on one connection and verifies each response.
// Returns false (with a message on stderr) on any failure.
bool WarmUp(Stack& st, const Spec& spec,
            const std::vector<std::vector<std::vector<float>>>& queries);

// Peak resident set size of this process in MiB (VmHWM), and a reset of
// that peak to the current RSS. ResetPeakRss returns false where the
// kernel does not allow it.
double PeakRssMb();
bool ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
