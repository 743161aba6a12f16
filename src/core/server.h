// Service provider: authenticated query processing (Algorithm 5).
//
// For a query Q = {q_1..q_nq} and parameter k the SP
//   1. runs the AKM forest search to find each q_i's approximate nearest
//      cluster; its distance becomes the threshold t_i,
//   2. runs MRKDSearch over every MRKD-tree (shared or per-query traversals
//      per config), collecting the per-query candidate sets and VO_C,i,
//   3. assigns each q_i to the (distance, id)-minimal candidate — which,
//      because the range search is exact, is the true nearest cluster —
//      and builds the shared candidate-reveal section (full vectors, or
//      partial dimensions under Optimization A),
//   4. encodes B_Q and runs InvSearch (or FgSearch) for the top-k and
//      VO_inv — in the split-root layout of a shard, plus the list-tree
//      multiproof of B_Q's clusters,
//   5. attaches the result images and their Eq. (15) signatures.
// A shard serving a sharded composite runs steps 1-3 alone (EncodeBovw) or
// skips them for a vector another shard proved (ServeOptions::proven_bovw).

#ifndef IMAGEPROOF_CORE_SERVER_H_
#define IMAGEPROOF_CORE_SERVER_H_

#include <chrono>
#include <vector>

#include "core/owner.h"
#include "invindex/search.h"
#include "mrkd/search.h"

namespace imageproof::core {

struct QueryStats {
  double sp_bovw_ms = 0;      // BoVW step (forest + MRKD search + reveals)
  double sp_inv_ms = 0;       // inverted-index step
  size_t bovw_vo_bytes = 0;   // reveal section + tree VOs + thresholds
  size_t inv_vo_bytes = 0;
  mrkd::MrkdSearchStats mrkd;  // aggregated over trees
  invindex::InvSearchStats inv;
};

struct QueryResponse {
  std::vector<bovw::ScoredImage> topk;
  QueryVO vo;
  QueryStats stats;
  // The BoVW vector the inverted step scored (what the BoVW section of
  // `vo`, when present, proves).
  bovw::BovwVector query_bovw;
};

// Intra-query parallelism knobs. The hot loops of Query — the per-feature
// AKM threshold search (Step 1), the per-tree MRKD searches (Step 2), and
// the per-feature exact-nearest scan (Step 3) — are index-disjoint, so they
// route through ParallelFor and produce bit-identical output at any thread
// count. `threads == 1` (the default) is the plain serial loop.
struct QueryParallelism {
  unsigned threads = 1;
};

// Reusable per-query search scratch for the allocation-heavy stages: the
// AKM best-bin-first queues (one lane per intra-query worker), the per-tree
// MRKD traversal frames, and the inverted-index score accumulator + top-k
// heap. One scratch per concurrent Query caller (the engine keeps one per
// pool worker); buffers only grow, so after the first query on a scratch
// the search machinery of these stages performs zero heap allocation —
// remaining allocations are proportional to the response payload (VO
// bytes, candidate lists, result vectors), which is owned by the caller.
// Output is byte-identical with or without a scratch.
struct QueryScratch {
  std::vector<kern::SearchScratch> akm_lanes;        // stage 1, per worker
  std::vector<mrkd::MrkdSearchScratch> tree_lanes;   // stage 2, per tree
  kern::SearchScratch inv;                           // stage 5 (serial)

  void EnsureLanes(size_t workers, size_t trees) {
    if (akm_lanes.size() < workers) akm_lanes.resize(workers);
    if (tree_lanes.size() < trees) tree_lanes.resize(trees);
  }
};

// Cooperative per-query cancellation. Query() checks Expired() between its
// pipeline stages (never inside a parallel loop), so a deadlined query stops
// within one stage granule and returns kDeadlineExceeded instead of burning
// the rest of its CPU budget. A default-constructed control never expires.
// The checks read the clock but never alter any produced byte: a query that
// finishes in time is bit-identical with or without a deadline.
class QueryControl {
 public:
  using Clock = std::chrono::steady_clock;

  QueryControl() = default;
  explicit QueryControl(Clock::time_point deadline)
      : deadline_(deadline), has_deadline_(true) {}

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }
  bool Expired() const {
    return has_deadline_ && Clock::now() > deadline_;
  }

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
};

// Cross-cutting serving knobs threaded down from the engine. Both default
// to off/null, which reproduces the historical serving path byte for byte.
struct ServeOptions {
  // Compress the inverted-index / frequency-group VO section with
  // group-varint coding (InvSearchParams::compress_vo). Changes VO bytes —
  // only enabled for clients that negotiated it (net/wire.h query flag).
  bool compress_vo = false;
  // Keep popping after the termination conditions hold until every claimed
  // top-k score is provably exact (InvSearchParams::settle_exact_topk).
  // Changes VO bytes — required by sharded serving, where the composite
  // merge is only sound over exact per-shard scores.
  bool settle_exact_topk = false;
  // Per-snapshot proof memo (core/proof_memo.h) for sharing derived MRKD
  // proof bytes across concurrent queries. Never changes VO bytes.
  const class ProofMemo* memo = nullptr;
  // Skip steps 1-4 and serve the inverted step for this vector, already
  // proven by another shard of the same codebook forest; `features` are
  // not read and the VO's BoVW fields stay empty. A vector with unsorted
  // or out-of-range clusters is rejected.
  const bovw::BovwVector* proven_bovw = nullptr;
};

class ServiceProvider {
 public:
  // Borrows the package; the owner output must outlive the SP.
  //
  // Thread safety: Query is const over immutable package state and uses
  // only per-call locals, so one ServiceProvider may serve any number of
  // concurrent callers — this is what core/query_engine.h builds on. The
  // package must not be mutated (core/update.h) while queries are in
  // flight; the engine guarantees that with copy-on-write snapshots.
  explicit ServiceProvider(const SpPackage* package) : pkg_(package) {}

  QueryResponse Query(const std::vector<std::vector<float>>& features,
                      size_t k, const QueryParallelism& par = {}) const;

  // Deadline-aware variant: identical output when the control never
  // expires; returns kDeadlineExceeded (and leaves *out unspecified) when
  // the deadline passes between stages. The engine's serving path uses
  // this so in-flight queries honor their submission deadline. `scratch`
  // (optional, single caller per instance) keeps the search stages
  // allocation-free once warm.
  Status Query(const std::vector<std::vector<float>>& features, size_t k,
               const QueryParallelism& par, const QueryControl& control,
               QueryResponse* out, QueryScratch* scratch = nullptr) const;

  // Full-control variant: adds the engine's serving knobs (VO compression,
  // per-snapshot proof memo). The overloads above delegate here with
  // default ServeOptions.
  Status Query(const std::vector<std::vector<float>>& features, size_t k,
               const QueryParallelism& par, const QueryControl& control,
               const ServeOptions& serve, QueryResponse* out,
               QueryScratch* scratch = nullptr) const;

  // Steps 1-3 and the BoVW encoding alone: thresholds, MRKD search,
  // assignment and, `with_proof`, the reveals. Sets out->query_bovw and,
  // `with_proof`, the VO's BoVW fields; Query continues from here. Alone,
  // it is the BoVW proof of a sharded composite, which every shard's entry
  // shares (shard/coordinator.h) — or, without the proof, a shard's own
  // encoding of the vector another shard proves.
  Status EncodeBovw(const std::vector<std::vector<float>>& features,
                    const QueryParallelism& par, const QueryControl& control,
                    const ServeOptions& serve, bool with_proof,
                    QueryResponse* out, QueryScratch* scratch = nullptr) const;

  const SpPackage& package() const { return *pkg_; }

 private:
  const SpPackage* pkg_;
};

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_SERVER_H_
