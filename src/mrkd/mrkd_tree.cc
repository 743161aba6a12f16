#include "mrkd/mrkd_tree.h"

#include <cstring>

#include "common/parallel.h"
#include "crypto/hasher.h"
#include "mrkd/search.h"

namespace imageproof::mrkd {

MrkdTree::MrkdTree(const ann::RkdTree* tree, RevealMode mode,
                   const std::vector<Digest>* list_digests,
                   const std::vector<Digest>* commitments)
    : tree_(tree),
      mode_(mode),
      list_digests_(list_digests),
      commitments_(commitments) {
  if (commitments_ == nullptr) {
    ClusterCommitments(mode_, tree_->points(), &own_commitments_);
    commitments_ = &own_commitments_;
  }
  node_digests_.resize(tree_->nodes().size());
  BuildNodeDigests();
  BuildParentsAndLeafMap();
}

void MrkdTree::BuildParentsAndLeafMap() {
  const auto& nodes = tree_->nodes();
  parents_.assign(nodes.size(), -1);
  leaf_of_.assign(tree_->points().size(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const ann::RkdNode& n = nodes[i];
    if (n.IsLeaf()) {
      for (int32_t j = n.begin; j < n.end; ++j) {
        leaf_of_[tree_->point_indices()[j]] = static_cast<int32_t>(i);
      }
    } else {
      parents_[n.left] = static_cast<int32_t>(i);
      parents_[n.right] = static_cast<int32_t>(i);
    }
  }
}

Digest MrkdTree::RecomputeLocalDigest(int node) {
  const ann::RkdNode& n = tree_->nodes()[node];
  crypto::DigestBuilder b;
  if (n.IsLeaf()) {
    for (int32_t i = n.begin; i < n.end; ++i) {
      ClusterId c = static_cast<ClusterId>(tree_->point_indices()[i]);
      b.AddDigest((*commitments_)[c]);
      if (binds_lists()) b.AddDigest((*list_digests_)[c]);
    }
  } else {
    HashInternal(b, static_cast<uint32_t>(n.split_dim), n.split_value,
                 node_digests_[n.left], node_digests_[n.right]);
  }
  return b.Finalize();
}

size_t MrkdTree::RefreshListDigest(ClusterId c) {
  if (!binds_lists() || c >= leaf_of_.size() || leaf_of_[c] < 0) return 0;
  size_t rehashed = 0;
  for (int32_t node = leaf_of_[c]; node >= 0; node = parents_[node]) {
    node_digests_[node] = RecomputeLocalDigest(node);
    ++rehashed;
  }
  return rehashed;
}

void MrkdTree::PutInternal(uint8_t* out, uint32_t split_dim, float split_value,
                           const Digest& left, const Digest& right) {
  StoreU32(out, split_dim);
  StoreF32(out + 4, split_value);
  std::memcpy(out + 8, left.bytes.data(), crypto::kDigestSize);
  std::memcpy(out + 8 + crypto::kDigestSize, right.bytes.data(),
              crypto::kDigestSize);
}

void MrkdTree::HashInternal(crypto::DigestBuilder& b, uint32_t split_dim,
                            float split_value, const Digest& left,
                            const Digest& right) {
  uint8_t preimage[kInternalPreimageSize];
  PutInternal(preimage, split_dim, split_value, left, right);
  b.AddBytes(preimage, sizeof(preimage));
}

void MrkdTree::PutLeafToken(ByteWriter& w, int node) const {
  const ann::RkdNode& n = tree_->nodes()[node];
  w.PutU8(kTokenLeaf);
  w.PutVarint(static_cast<uint64_t>(n.end - n.begin));
  for (int32_t i = n.begin; i < n.end; ++i) {
    ClusterId c = static_cast<ClusterId>(tree_->point_indices()[i]);
    w.PutVarint(c);
    if (binds_lists()) crypto::PutDigest(w, (*list_digests_)[c]);
  }
}

void MrkdTree::BuildNodeDigests() {
  const auto& nodes = tree_->nodes();
  if (nodes.empty()) return;

  // Group nodes by depth (BFS from the root: a node's children always sit
  // one level deeper), then digest the levels deepest-first. Every node's
  // preimage depends only on strictly deeper digests, so within a level the
  // hashes are independent — batched four-wide and chunk-parallel. Each
  // digest is a pure function of its own preimage bytes, so the result is
  // byte-identical to the old post-order recursion.
  std::vector<int32_t> order;
  order.reserve(nodes.size());
  std::vector<size_t> level_begin;  // index into `order` where each depth starts
  order.push_back(static_cast<int32_t>(tree_->root()));
  level_begin.push_back(0);
  size_t frontier = 0;
  while (frontier < order.size()) {
    const size_t level_end = order.size();
    for (; frontier < level_end; ++frontier) {
      const ann::RkdNode& n = nodes[order[frontier]];
      if (!n.IsLeaf()) {
        order.push_back(n.left);
        order.push_back(n.right);
      }
    }
    if (order.size() > level_end) level_begin.push_back(level_end);
  }

  for (size_t lvl = level_begin.size(); lvl-- > 0;) {
    const size_t begin = level_begin[lvl];
    const size_t end = lvl + 1 < level_begin.size() ? level_begin[lvl + 1]
                                                    : order.size();
    ParallelChunks(end - begin, /*chunk=*/512, [&](size_t cb, size_t ce) {
      const size_t count = ce - cb;
      // Assemble this chunk's preimages (canonical ByteWriter encodings —
      // the same bytes DigestBuilder streams) and batch-digest them.
      ByteWriter w;
      std::vector<size_t> offsets(count + 1, 0);
      for (size_t i = 0; i < count; ++i) {
        const int32_t node = order[begin + cb + i];
        const ann::RkdNode& n = nodes[node];
        if (n.IsLeaf()) {
          for (int32_t j = n.begin; j < n.end; ++j) {
            ClusterId c = static_cast<ClusterId>(tree_->point_indices()[j]);
            crypto::PutDigest(w, (*commitments_)[c]);
            if (binds_lists()) crypto::PutDigest(w, (*list_digests_)[c]);
          }
        } else {
          uint8_t preimage[kInternalPreimageSize];
          PutInternal(preimage, static_cast<uint32_t>(n.split_dim),
                      n.split_value, node_digests_[n.left],
                      node_digests_[n.right]);
          w.PutBytes(preimage, sizeof(preimage));
        }
        offsets[i + 1] = w.bytes().size();
      }
      std::vector<BytesView> msgs;
      std::vector<Digest> outs(count);
      msgs.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        msgs.emplace_back(w.bytes().data() + offsets[i],
                          offsets[i + 1] - offsets[i]);
      }
      crypto::HashBatch(msgs.data(), outs.data(), count);
      for (size_t i = 0; i < count; ++i) {
        node_digests_[order[begin + cb + i]] = outs[i];
      }
    });
  }
}

}  // namespace imageproof::mrkd
