#include "mrkd/verify.h"

#include <algorithm>
#include <cmath>

#include "crypto/hasher.h"
#include "mrkd/mrkd_tree.h"
#include "mrkd/search.h"

namespace imageproof::mrkd {

Status CommitmentTable::Assign(const std::vector<ClusterId>& ids,
                               std::vector<Digest> commitments) {
  commitments_ = std::move(commitments);
  by_id_.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    by_id_[i] = {ids[i], static_cast<uint32_t>(i)};
  }
  std::sort(by_id_.begin(), by_id_.end());
  for (size_t i = 1; i < by_id_.size(); ++i) {
    if (by_id_[i].first == by_id_[i - 1].first) {
      return Status::Error("client: duplicate cluster reveal");
    }
  }
  return Status::Ok();
}

uint32_t CommitmentTable::Find(ClusterId c) const {
  auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), c,
      [](const std::pair<ClusterId, uint32_t>& e, ClusterId id) {
        return e.first < id;
      });
  return it != by_id_.end() && it->first == c ? it->second : kNotFound;
}

namespace {

// One replayed VO node. Pruned nodes carry their digest from the VO; leaf
// and internal digests are filled in by pass 2.
struct ReplayNode {
  uint8_t kind = kTokenPruned;
  // Pass-2 level: a node is hashed after every node of a lower level.
  // Pruned -1 (never hashed), leaf 0, internal 1 + max(children).
  int32_t level = -1;
  uint32_t split_dim = 0;
  float split_value = 0;
  uint32_t left = 0, right = 0;             // internal: child node indices
  uint32_t leaf_begin = 0, leaf_bytes = 0;  // leaf: preimage byte range
  Digest digest = Digest::Zero();
};

// A query active at the node being replayed. `far` marks a query that
// descended into the far side of its parent's split; `saved_offset` is the
// split-dimension offset it had before, restored on the way back up.
struct ActiveQuery {
  uint32_t q;
  bool far;
  double mindist;
  double saved_offset;
};

// Pass 1: parses one tree's token streams and makes every decision the
// serial replay made, in the same order, without hashing. The active sets
// of all nodes on the current root path live in one stack (`active_`), so
// no node owns a container.
class TreeParser {
 public:
  TreeParser(size_t dims, const CommitmentTable& table,
             const std::vector<const float*>& queries,
             const std::vector<double>& thresholds_sq, bool binds_lists,
             ForestVerifyOutput* out)
      : dims_(dims),
        binds_lists_(binds_lists),
        table_(table),
        queries_(queries),
        thresholds_sq_(thresholds_sq),
        offsets_(queries.size() * dims, 0.0),
        out_(out) {}

  // Replays one stream starting with `initial` active queries; returns the
  // index of its root node in *root.
  Status ParseStream(ByteReader& r, const std::vector<uint32_t>& initial,
                     uint32_t* root) {
    active_.clear();
    for (uint32_t q : initial) active_.push_back({q, false, 0.0, 0.0});
    reader_ = &r;
    return Replay(0, active_.size(), root);
  }

  std::vector<ReplayNode>& nodes() { return nodes_; }
  const Bytes& leaf_preimages() const { return leaf_preimages_; }

  // Drops the previous tree's nodes, keeping the buffers.
  void Clear() {
    nodes_.clear();
    leaf_preimages_.clear();
  }

 private:
  // Appends to active_ the queries of [begin, end) that are active in the
  // child on side `left` of the split (dim d, value v): the near side keeps
  // its mindist, the far side is entered iff its updated mindist is within
  // the query's threshold.
  void PushChild(size_t begin, size_t end, bool left, int d, float v) {
    for (size_t k = begin; k < end; ++k) {
      const ActiveQuery a = active_[k];
      const double diff = static_cast<double>(queries_[a.q][d]) - v;
      const bool near_is_left = diff < 0;
      if (near_is_left == left) {
        active_.push_back({a.q, false, a.mindist, 0.0});
        continue;
      }
      const double old_off = offsets_[a.q * dims_ + d];
      const double far_dist = a.mindist - old_off * old_off + diff * diff;
      if (far_dist <= thresholds_sq_[a.q]) {
        active_.push_back({a.q, true, far_dist, old_off});
      }
    }
  }

  Status Descend(size_t begin, size_t end, bool left, int d, float v,
                 uint32_t* child) {
    const size_t child_begin = active_.size();
    PushChild(begin, end, left, d, v);
    const size_t child_end = active_.size();
    for (size_t k = child_begin; k < child_end; ++k) {
      const ActiveQuery& a = active_[k];
      if (!a.far) continue;
      offsets_[a.q * dims_ + d] =
          std::abs(static_cast<double>(queries_[a.q][d]) - v);
    }
    Status s = Replay(child_begin, child_end, child);
    for (size_t k = child_begin; k < child_end; ++k) {
      const ActiveQuery& a = active_[k];
      if (a.far) offsets_[a.q * dims_ + d] = a.saved_offset;
    }
    active_.resize(child_begin);
    return s;
  }

  // Replays the subtree whose active queries are active_[begin, end).
  Status Replay(size_t begin, size_t end, uint32_t* node_out) {
    ByteReader& r = *reader_;
    uint8_t kind = 0;
    Status s = r.GetU8(&kind);
    if (!s.ok()) return s;

    ReplayNode node;
    node.kind = kind;
    if (begin == end) {
      if (kind != kTokenPruned) {
        return Status::Error("mrkd: subtree revealed where no query is active");
      }
      if (!(s = crypto::GetDigest(r, &node.digest)).ok()) return s;
      return Emit(node, node_out);
    }
    if (kind == kTokenPruned) {
      return Status::Error("mrkd: subtree pruned while a query is active");
    }

    if (kind == kTokenLeaf) {
      uint64_t count;
      if (!(s = r.GetVarint(&count)).ok()) return s;
      if (count == 0 || count > 4096) {
        return Status::Error("mrkd: implausible leaf size");
      }
      node.level = 0;
      node.leaf_begin = static_cast<uint32_t>(leaf_preimages_.size());
      const size_t num_entries = table_.size();
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t cid;
        if (!(s = r.GetVarint(&cid)).ok()) return s;
        const uint32_t entry = table_.Find(static_cast<ClusterId>(cid));
        if (entry == CommitmentTable::kNotFound) {
          return Status::Error(
              "mrkd: leaf cluster missing from reveal section");
        }
        const Digest& commitment = table_.commitment(entry);
        leaf_preimages_.insert(leaf_preimages_.end(), commitment.bytes.begin(),
                               commitment.bytes.end());
        if (binds_lists_) {
          Digest list_digest;
          if (!(s = crypto::GetDigest(r, &list_digest)).ok()) return s;
          leaf_preimages_.insert(leaf_preimages_.end(),
                                 list_digest.bytes.begin(),
                                 list_digest.bytes.end());
          std::optional<Digest>& bound = out_->list_digests[entry];
          if (bound.has_value() && *bound != list_digest) {
            return Status::Error("mrkd: conflicting inverted-list digests");
          }
          bound = list_digest;
        }
        for (size_t k = begin; k < end; ++k) {
          out_->candidate[active_[k].q * num_entries + entry] = 1;
        }
      }
      node.leaf_bytes = static_cast<uint32_t>(leaf_preimages_.size() -
                                              node.leaf_begin);
      return Emit(node, node_out);
    }

    if (kind != kTokenInternal) {
      return Status::Error("mrkd: unknown VO token");
    }
    uint64_t split_dim;
    if (!(s = r.GetVarint(&split_dim)).ok()) return s;
    if (split_dim >= dims_) {
      return Status::Error("mrkd: split dimension out of range");
    }
    if (!(s = r.GetF32(&node.split_value)).ok()) return s;
    node.split_dim = static_cast<uint32_t>(split_dim);

    const int d = static_cast<int>(split_dim);
    if (!(s = Descend(begin, end, /*left=*/true, d, node.split_value,
                      &node.left))
             .ok()) {
      return s;
    }
    if (!(s = Descend(begin, end, /*left=*/false, d, node.split_value,
                      &node.right))
             .ok()) {
      return s;
    }
    node.level =
        1 + std::max(nodes_[node.left].level, nodes_[node.right].level);
    return Emit(node, node_out);
  }

  Status Emit(const ReplayNode& node, uint32_t* index) {
    *index = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(node);
    return Status::Ok();
  }

  const size_t dims_;
  const bool binds_lists_;
  const CommitmentTable& table_;
  const std::vector<const float*>& queries_;
  const std::vector<double>& thresholds_sq_;
  std::vector<double> offsets_;  // [query * dims + dim]
  std::vector<ActiveQuery> active_;
  std::vector<ReplayNode> nodes_;  // post-order, across the tree's streams
  Bytes leaf_preimages_;  // commitment [| list digest], per leaf entry
  ByteReader* reader_ = nullptr;
  ForestVerifyOutput* out_;
};

// Pass 2: digests every leaf and internal node, lowest level first. A
// node's preimage depends only on nodes of lower levels, so each level is
// one batch of independent messages. Buffers are reused across trees.
class LevelHasher {
 public:
  void Hash(std::vector<ReplayNode>& nodes, const Bytes& leaf_preimages) {
    int32_t max_level = -1;
    for (const ReplayNode& n : nodes) max_level = std::max(max_level, n.level);
    if (max_level < 0) return;
    // Counting sort of the hashed nodes by level.
    level_begin_.assign(static_cast<size_t>(max_level) + 2, 0);
    for (const ReplayNode& n : nodes) {
      if (n.level >= 0) ++level_begin_[n.level + 1];
    }
    for (size_t l = 1; l < level_begin_.size(); ++l) {
      level_begin_[l] += level_begin_[l - 1];
    }
    order_.resize(level_begin_.back());
    fill_.assign(level_begin_.begin(), level_begin_.end() - 1);
    for (uint32_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].level >= 0) order_[fill_[nodes[i].level]++] = i;
    }

    constexpr size_t kInternal = MrkdTree::kInternalPreimageSize;
    for (int32_t level = 0; level <= max_level; ++level) {
      const uint32_t begin = level_begin_[level];
      const uint32_t count = level_begin_[level + 1] - begin;
      internal_preimages_.resize(static_cast<size_t>(count) * kInternal);
      msgs_.resize(count);
      digests_.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        const ReplayNode& n = nodes[order_[begin + i]];
        if (n.kind == kTokenLeaf) {
          msgs_[i] =
              BytesView(leaf_preimages.data() + n.leaf_begin, n.leaf_bytes);
        } else {
          uint8_t* p = internal_preimages_.data() + i * kInternal;
          MrkdTree::PutInternal(p, n.split_dim, n.split_value,
                                nodes[n.left].digest, nodes[n.right].digest);
          msgs_[i] = BytesView(p, kInternal);
        }
      }
      crypto::HashBatch(msgs_.data(), digests_.data(), count);
      for (uint32_t i = 0; i < count; ++i) {
        nodes[order_[begin + i]].digest = digests_[i];
      }
    }
  }

 private:
  std::vector<uint32_t> level_begin_, fill_, order_;
  std::vector<uint8_t> internal_preimages_;
  std::vector<BytesView> msgs_;
  std::vector<Digest> digests_;
};

}  // namespace

Status VerifyForestVo(const std::vector<Bytes>& tree_vos, size_t dims,
                      const CommitmentTable& commitments,
                      const std::vector<const float*>& queries,
                      const std::vector<double>& thresholds_sq, bool shared,
                      ForestVerifyOutput* out, bool leaves_bind_lists) {
  const size_t nq = queries.size();
  out->roots.assign(tree_vos.size(), Digest::Zero());
  out->candidate.assign(nq * commitments.size(), 0);
  out->list_digests.assign(commitments.size(), std::nullopt);

  // One tree at a time, so the node buffers stay the size of one tree's
  // VO. Shared layout: one stream per tree with every query active.
  // Baseline layout: one stream per query per tree.
  TreeParser parser(dims, commitments, queries, thresholds_sq,
                    leaves_bind_lists, out);
  LevelHasher hasher;
  const size_t streams = shared ? 1 : nq;
  std::vector<uint32_t> stream_roots(streams);
  std::vector<uint32_t> initial;
  for (size_t t = 0; t < tree_vos.size(); ++t) {
    parser.Clear();
    ByteReader r(tree_vos[t]);
    for (size_t i = 0; i < streams; ++i) {
      initial.clear();
      if (shared) {
        for (uint32_t q = 0; q < nq; ++q) initial.push_back(q);
      } else {
        initial.push_back(static_cast<uint32_t>(i));
      }
      Status s = parser.ParseStream(r, initial, &stream_roots[i]);
      if (!s.ok()) return s;
    }
    if (!r.AtEnd()) return Status::Error("client: trailing tree VO bytes");

    hasher.Hash(parser.nodes(), parser.leaf_preimages());
    for (size_t i = 0; i < streams; ++i) {
      const Digest& root = parser.nodes()[stream_roots[i]].digest;
      if (i == 0) {
        out->roots[t] = root;
      } else if (root != out->roots[t]) {
        return Status::Error(
            "mrkd: per-query streams reconstruct different roots");
      }
    }
  }
  return Status::Ok();
}

}  // namespace imageproof::mrkd
