// Correctness gates run after the measured phase of every run. Each prints
// what failed on stderr and returns false; any failure makes the run
// incorrect.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <vector>

#include "stack.h"

namespace perfbench {

// Single-deployment workloads: for the first queries the measured clients
// sent, the bytes served now (a cache hit on hot_zipf) verify and equal a
// cold ServiceProvider::Query on the served snapshot. `cache_hits` counts
// the sampled responses that came from the result cache.
bool CheckServedMatchesColdServe(Stack& st, const Spec& spec, const Inputs& in,
                                 size_t* cache_hits);

// sharded_4: for the first queries the measured clients sent, the verified
// composite merge has the same ids and bit-identical exact scores as the
// settled serve of an unsharded deployment of the same corpus.
bool CheckShardedMatchesUnsharded(Stack& st, const Spec& spec, const Inputs& in);

// update_mixed: CURRENT reopened from disk has the served snapshot's root,
// every acknowledged insert is present and every acknowledged delete gone.
bool CheckDurability(Stack& st, const std::vector<bovw::ImageId>& inserts,
                     const std::vector<bovw::ImageId>& deletes);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
