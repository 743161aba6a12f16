#include "mrkd/search.h"

#include <cmath>

#include "mrkd/memo.h"

namespace imageproof::mrkd {

namespace {

// Recursion state shared across the traversal. Offsets are maintained
// mutate-and-restore so no per-branch copies are made; the per-depth
// partition buffers live in the (possibly caller-provided) scratch, so a
// warm traversal performs no heap allocation.
struct SearchContext {
  const MrkdTree* mrkd;
  const std::vector<const float*>* queries;
  const std::vector<double>* thresholds_sq;
  MrkdSearchScratch* scratch;
  ByteWriter* writer;
  TreeSearchOutput* out;
  const LeafProofMemo* leaf_memo = nullptr;

  MrkdSearchScratch::Frame& FrameAt(size_t depth) {
    while (depth >= scratch->frames.size()) scratch->frames.emplace_back();
    return scratch->frames[depth];
  }
};

// `active` holds query indices; `mindist` the exact squared min distance of
// each active query to the current node's region.
void SearchRec(SearchContext& ctx, int node_index, size_t depth,
               const std::vector<uint32_t>& active,
               const std::vector<double>& mindist) {
  const ann::RkdTree& tree = ctx.mrkd->tree();
  const ann::RkdNode& node = tree.nodes()[node_index];

  if (active.empty()) {
    ctx.writer->PutU8(kTokenPruned);
    crypto::PutDigest(*ctx.writer, ctx.mrkd->node_digest(node_index));
    ++ctx.out->stats.pruned_subtrees;
    return;
  }
  ++ctx.out->stats.traversed_nodes;
  if (active.size() >= 2) ++ctx.out->stats.shared_nodes;

  if (node.IsLeaf()) {
    if (ctx.leaf_memo) {
      // Byte-identical token run, serialized once per (snapshot, node) and
      // shared across every concurrent search (mrkd/memo.h).
      ctx.writer->PutBytes(ctx.leaf_memo->Get(*ctx.mrkd, node_index));
    } else {
      ctx.mrkd->PutLeafToken(*ctx.writer, node_index);
    }
    for (int32_t i = node.begin; i < node.end; ++i) {
      ClusterId c = static_cast<ClusterId>(tree.point_indices()[i]);
      for (uint32_t q : active) ctx.out->candidates[q].push_back(c);
    }
    return;
  }

  ctx.writer->PutU8(kTokenInternal);
  ctx.writer->PutVarint(static_cast<uint64_t>(node.split_dim));
  ctx.writer->PutF32(node.split_value);

  const int d = node.split_dim;
  MrkdSearchScratch::Frame& frame = ctx.FrameAt(depth);
  std::vector<uint32_t>& left_active = frame.left_active;
  std::vector<uint32_t>& right_active = frame.right_active;
  std::vector<double>& left_mindist = frame.left_mindist;
  std::vector<double>& right_mindist = frame.right_mindist;
  std::vector<std::pair<uint32_t, double>>& left_saved = frame.left_saved;
  std::vector<std::pair<uint32_t, double>>& right_saved = frame.right_saved;
  left_active.clear();
  right_active.clear();
  left_mindist.clear();
  right_mindist.clear();
  left_saved.clear();
  right_saved.clear();

  for (size_t k = 0; k < active.size(); ++k) {
    uint32_t q = active[k];
    double diff = static_cast<double>((*ctx.queries)[q][d]) - node.split_value;
    bool near_is_left = diff < 0;
    double old_off = ctx.scratch->offsets[q][d];
    double far_dist = mindist[k] - old_off * old_off + diff * diff;

    double near_dist = mindist[k];
    double t = (*ctx.thresholds_sq)[q];
    // Near child: offset unchanged.
    if (near_is_left) {
      left_active.push_back(q);
      left_mindist.push_back(near_dist);
    } else {
      right_active.push_back(q);
      right_mindist.push_back(near_dist);
    }
    // Far child: offset along d tightens to |diff|.
    if (far_dist <= t) {
      if (near_is_left) {
        right_active.push_back(q);
        right_mindist.push_back(far_dist);
        right_saved.emplace_back(q, old_off);
      } else {
        left_active.push_back(q);
        left_mindist.push_back(far_dist);
        left_saved.emplace_back(q, old_off);
      }
    }
  }

  auto descend = [&](int child, const std::vector<uint32_t>& child_active,
                     const std::vector<double>& child_mindist,
                     const std::vector<std::pair<uint32_t, double>>& saved) {
    for (const auto& [q, old_off] : saved) {
      double diff =
          static_cast<double>((*ctx.queries)[q][d]) - node.split_value;
      ctx.scratch->offsets[q][d] = std::abs(diff);
      (void)old_off;
    }
    SearchRec(ctx, child, depth + 1, child_active, child_mindist);
    for (const auto& [q, old_off] : saved) ctx.scratch->offsets[q][d] = old_off;
  };

  descend(node.left, left_active, left_mindist, left_saved);
  descend(node.right, right_active, right_mindist, right_saved);
}

// Grows (never shrinks) the per-query offset vectors and zeroes the live
// prefix, reusing prior capacity.
void PrepareOffsets(MrkdSearchScratch& scratch, size_t num_queries,
                    size_t dims) {
  if (scratch.offsets.size() < num_queries) scratch.offsets.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    scratch.offsets[q].assign(dims, 0.0);
  }
}

TreeSearchOutput RunSearch(const MrkdTree& tree,
                           const std::vector<const float*>& queries,
                           const std::vector<double>& thresholds_sq,
                           const std::vector<uint32_t>& initial_active,
                           MrkdSearchScratch& scratch,
                           TreeSearchOutput* accumulate,
                           const LeafProofMemo* leaf_memo) {
  TreeSearchOutput local;
  TreeSearchOutput& out = accumulate ? *accumulate : local;
  if (out.candidates.size() != queries.size()) {
    out.candidates.resize(queries.size());
  }

  SearchContext ctx;
  ctx.mrkd = &tree;
  ctx.queries = &queries;
  ctx.thresholds_sq = &thresholds_sq;
  ctx.scratch = &scratch;
  ctx.leaf_memo = leaf_memo;
  PrepareOffsets(scratch, queries.size(), tree.tree().points().dims());
  ByteWriter writer;
  ctx.writer = &writer;
  ctx.out = &out;

  scratch.initial_mindist.assign(initial_active.size(), 0.0);
  if (!tree.tree().nodes().empty()) {
    SearchRec(ctx, tree.tree().root(), 0, initial_active,
              scratch.initial_mindist);
  }
  Bytes vo = writer.Take();
  out.vo.insert(out.vo.end(), vo.begin(), vo.end());
  return out;
}

}  // namespace

TreeSearchOutput MrkdSearchShared(const MrkdTree& tree,
                                  const std::vector<const float*>& queries,
                                  const std::vector<double>& thresholds_sq,
                                  MrkdSearchScratch* scratch,
                                  const LeafProofMemo* leaf_memo) {
  MrkdSearchScratch local;
  MrkdSearchScratch& s = scratch ? *scratch : local;
  s.initial_active.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    s.initial_active[i] = static_cast<uint32_t>(i);
  }
  return RunSearch(tree, queries, thresholds_sq, s.initial_active, s, nullptr,
                   leaf_memo);
}

TreeSearchOutput MrkdSearchUnshared(const MrkdTree& tree,
                                    const std::vector<const float*>& queries,
                                    const std::vector<double>& thresholds_sq,
                                    MrkdSearchScratch* scratch,
                                    const LeafProofMemo* leaf_memo) {
  MrkdSearchScratch local;
  MrkdSearchScratch& s = scratch ? *scratch : local;
  TreeSearchOutput out;
  out.candidates.resize(queries.size());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    s.initial_active.assign(1, q);
    RunSearch(tree, queries, thresholds_sq, s.initial_active, s, &out,
              leaf_memo);
  }
  return out;
}

}  // namespace imageproof::mrkd
