// The traced run's per-layer attribution. Spans wrap only the benchmark's
// own calls into each module's public entry points; nothing inside the
// library is instrumented.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>

#include "report.h"
#include "stack.h"

namespace perfbench {

// Replays a seeded sample of the workload's queries, serially on an idle
// stack, through every layer: the wire (NetClient::QueryForRelay), the
// engine, ServiceProvider::Query and its stages (AKM, MRKD, inverted
// index), VO codec and the client's verification stages; then the shard
// layer (coordinator, backends, composite verify) and the owner's update
// layers (engine update, clone, apply, sign, epoch write and open). Every
// replayed VO section must equal the served bytes. Adds one metric per
// layer to `out`; returns false (with a message on stderr) when a replayed
// section differs or any step fails. Owner updates run last and leave the
// stack updated.
bool ReplayLayers(Stack& st, const Spec& spec, const Inputs& in,
                  const std::string& scratch_dir, MetricSet* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
