#include "mrkd/memo.h"

#include "mrkd/mrkd_tree.h"

namespace imageproof::mrkd {

namespace {

// Build-then-CAS publication: exactly one builder wins the slot, losers
// delete their (identical) copy and adopt the winner. Acquire/release pair
// so the winner's fully constructed object is visible to every adopter.
template <typename T>
const T& Publish(std::atomic<const T*>& slot, T* built) {
  const T* expected = nullptr;
  if (slot.compare_exchange_strong(expected, built,
                                   std::memory_order_release,
                                   std::memory_order_acquire)) {
    return *built;
  }
  delete built;
  return *expected;
}

}  // namespace

DimTreeMemo::DimTreeMemo(size_t num_clusters) : slots_(num_clusters) {}

DimTreeMemo::~DimTreeMemo() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
}

const merkle::MerkleTree& DimTreeMemo::Get(ClusterId id, const float* coords,
                                           size_t dims) const {
  std::atomic<const merkle::MerkleTree*>& slot = slots_[id];
  if (const merkle::MerkleTree* t = slot.load(std::memory_order_acquire)) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    return *t;
  }
  stats_.builds.fetch_add(1, std::memory_order_relaxed);
  return Publish(slot, new merkle::MerkleTree(CoordBlockLeaves(coords, dims)));
}

LeafProofMemo::LeafProofMemo(size_t num_nodes) : slots_(num_nodes) {}

LeafProofMemo::~LeafProofMemo() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
}

const Bytes& LeafProofMemo::Get(const MrkdTree& tree, int node_index) const {
  std::atomic<const Bytes*>& slot = slots_[node_index];
  if (const Bytes* b = slot.load(std::memory_order_acquire)) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    return *b;
  }
  stats_.builds.fetch_add(1, std::memory_order_relaxed);
  ByteWriter w;
  tree.PutLeafToken(w, node_index);
  return Publish(slot, new Bytes(w.Take()));
}

}  // namespace imageproof::mrkd
