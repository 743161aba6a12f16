#include "ann/rkd_forest.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"

namespace imageproof::ann {

RkdForest::RkdForest(const PointSet& points, ForestParams params)
    : points_(&points), params_(params) {
  trees_.resize(static_cast<size_t>(std::max(params_.num_trees, 0)));
  ParallelFor(
      trees_.size(),
      [&](size_t t) {
        trees_[t] = std::make_unique<RkdTree>(
            points, params_.max_leaf_size,
            params_.seed + 0x9E3779B9ULL * (t + 1));
      },
      /*max_threads=*/0, /*grain=*/1);
}

NearestResult RkdForest::ApproxNearest(const float* query,
                                       kern::SearchScratch* scratch) const {
  NearestResult best;
  best.dist_sq = std::numeric_limits<double>::infinity();
  if (points_->empty()) return best;

  // Min-heap on min_dist over the caller's reusable buffer (or a local one):
  // push_heap/pop_heap with BranchGreater pop the closest pending subtree
  // first, exactly like the std::priority_queue this replaces.
  std::vector<kern::BestBinBranch> local_heap;
  std::vector<kern::BestBinBranch>& heap =
      scratch ? scratch->branch_heap : local_heap;
  heap.clear();
  auto heap_push = [&heap](kern::BestBinBranch b) {
    heap.push_back(b);
    std::push_heap(heap.begin(), heap.end(), kern::BranchGreater);
  };
  for (int t = 0; t < static_cast<int>(trees_.size()); ++t) {
    heap_push(kern::BestBinBranch{0.0, t, trees_[t]->root()});
  }

  const size_t dims = points_->dims();
  int leaves_checked = 0;
  while (!heap.empty() && leaves_checked < params_.max_leaf_checks) {
    std::pop_heap(heap.begin(), heap.end(), kern::BranchGreater);
    kern::BestBinBranch branch = heap.back();
    heap.pop_back();
    if (branch.min_dist >= best.dist_sq) continue;

    const RkdTree& tree = *trees_[branch.tree];
    int node_index = branch.node;
    double min_dist = branch.min_dist;
    // Descend to a leaf, queueing the far sibling at every level with the
    // FLANN cumulative distance approximation.
    while (true) {
      const RkdNode& node = tree.nodes()[node_index];
      if (node.IsLeaf()) {
        for (int32_t i = node.begin; i < node.end; ++i) {
          int32_t pi = tree.point_indices()[i];
          // The pruned kernel may return any partial sum >= the bound for a
          // point that cannot win, so only a strictly smaller value — which
          // is always an exactly computed distance — may update the best.
          double d = kern::SquaredL2Pruned(query, points_->row(pi), dims,
                                           best.dist_sq);
          if (d < best.dist_sq) {
            best.dist_sq = d;
            best.index = pi;
          }
        }
        ++leaves_checked;
        break;
      }
      double diff = static_cast<double>(query[node.split_dim]) - node.split_value;
      int near_child = diff < 0 ? node.left : node.right;
      int far_child = diff < 0 ? node.right : node.left;
      heap_push(
          kern::BestBinBranch{min_dist + diff * diff, branch.tree, far_child});
      node_index = near_child;
    }
  }
  return best;
}

}  // namespace imageproof::ann
