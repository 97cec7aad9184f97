#include "provenance/subtree_hasher.h"

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

#include "common/varint.h"

namespace provdb::provenance {

crypto::Digest HashTreeNode(crypto::HashAlgorithm alg, storage::ObjectId id,
                            const storage::Value& value,
                            const std::vector<crypto::Digest>& child_hashes) {
  Bytes preimage;
  preimage.reserve(16 + value.ApproximateSize() +
                   child_hashes.size() * crypto::Digest::kMaxSize);
  AppendByte(&preimage, child_hashes.empty() ? kLeafNodeTag : kInteriorNodeTag);
  AppendVarint64(&preimage, id);
  value.CanonicalEncode(&preimage);
  for (const crypto::Digest& child : child_hashes) {
    AppendBytes(&preimage, child.view());
  }
  return crypto::HashBytes(alg, preimage);
}

SubtreeHasher::SubtreeHasher(const storage::TreeStore* tree,
                             crypto::HashAlgorithm alg)
    : tree_(tree),
      alg_(alg),
      nodes_hashed_total_(
          observability::GlobalMetrics().counter("hash.nodes_hashed")),
      subtree_calls_(
          observability::GlobalMetrics().counter("hash.subtree.calls")) {}

crypto::Digest SubtreeHasher::HashNode(
    storage::ObjectId id, const storage::Value& value,
    const std::vector<crypto::Digest>& child_hashes) const {
  CountWork(0, 1);
  return HashTreeNode(alg_, id, value, child_hashes);
}

void SubtreeHasher::CountWork(uint64_t subtree_calls,
                              uint64_t nodes_hashed) const {
  subtree_calls_->Add(subtree_calls);
  nodes_hashed_.fetch_add(nodes_hashed, std::memory_order_relaxed);
  nodes_hashed_total_->Add(nodes_hashed);
}

crypto::Digest SubtreeHasher::HashAtomic(storage::ObjectId id,
                                         const storage::Value& value) const {
  return HashNode(id, value, {});
}

Result<crypto::Digest> SubtreeHasher::HashSubtreeBasic(
    storage::ObjectId root) const {
  uint64_t hashed = 0;
  Result<crypto::Digest> digest = WalkBasic(root, &hashed);
  CountWork(1, hashed);
  return digest;
}

Result<crypto::Digest> SubtreeHasher::WalkBasic(storage::ObjectId root,
                                                uint64_t* hashed) const {
  PROVDB_RETURN_IF_ERROR(tree_->GetNode(root).status());

  // Iterative post-order: children hashed before their parent.
  struct Frame {
    storage::ObjectId id;
    size_t next_child = 0;
    std::vector<crypto::Digest> child_hashes;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0, {}});
  crypto::Digest result;

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const storage::TreeNode& node = *tree_->GetNode(frame.id).value();
    if (frame.next_child < node.children.size()) {
      storage::ObjectId child = node.children[frame.next_child++];
      stack.push_back({child, 0, {}});
      continue;
    }
    crypto::Digest digest =
        HashTreeNode(alg_, node.id, node.value, frame.child_hashes);
    ++*hashed;
    stack.pop_back();
    if (stack.empty()) {
      result = digest;
    } else {
      stack.back().child_hashes.push_back(digest);
    }
  }
  return result;
}

Result<crypto::Digest> SubtreeHasher::HashSubtreeBasic(
    storage::ObjectId root, ThreadPool* pool) const {
  PROVDB_ASSIGN_OR_RETURN(const storage::TreeNode* node,
                          tree_->GetNode(root));
  if (pool == nullptr || pool->size() <= 1 || node->children.size() < 2) {
    return HashSubtreeBasic(root);
  }

  // Fan out at most one task per worker, each over a contiguous run of
  // child subtrees (embarrassingly parallel: each task only reads the
  // tree). One task per child would pay a queue round trip per child,
  // which on a wide table of small rows costs more than the hashing.
  // Every digest lands at its child's index, so the combined digest is
  // identical to the sequential walk's (node->children is sorted).
  const size_t children = node->children.size();
  const size_t num_tasks = std::min(pool->size(), children);
  std::vector<crypto::Digest> child_hashes(children);
  std::vector<std::future<Status>> tasks;
  tasks.reserve(num_tasks);
  for (size_t t = 0; t < num_tasks; ++t) {
    const size_t begin = children * t / num_tasks;
    const size_t end = children * (t + 1) / num_tasks;
    tasks.push_back(pool->Submit([this, node, begin, end, &child_hashes] {
      uint64_t hashed = 0;
      Status status;
      size_t i = begin;
      for (; i < end && status.ok(); ++i) {
        Result<crypto::Digest> digest = WalkBasic(node->children[i], &hashed);
        if (digest.ok()) {
          child_hashes[i] = std::move(digest).value();
        } else {
          status = digest.status();
        }
      }
      CountWork(i - begin, hashed);
      return status;
    }));
  }
  // The lowest failing run reports; every future is drained so no task
  // outlives this call.
  Status first_error;
  for (std::future<Status>& task : tasks) {
    Status status = task.get();
    if (first_error.ok()) {
      first_error = status;
    }
  }
  if (!first_error.ok()) {
    return first_error;
  }
  return HashNode(node->id, node->value, child_hashes);
}

EconomicalHasher::EconomicalHasher(const storage::TreeStore* tree,
                                   crypto::HashAlgorithm alg)
    : tree_(tree),
      base_(tree, alg),
      memo_hits_(observability::GlobalMetrics().counter("hash.memo_hits")) {}

Result<crypto::Digest> EconomicalHasher::HashSubtree(storage::ObjectId root) {
  PROVDB_RETURN_IF_ERROR(tree_->GetNode(root).status());

  struct Frame {
    storage::ObjectId id;
    size_t next_child = 0;
    std::vector<crypto::Digest> child_hashes;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0, {}});
  crypto::Digest result;

  auto deliver = [&](const crypto::Digest& digest) {
    if (stack.empty()) {
      result = digest;
    } else {
      stack.back().child_hashes.push_back(digest);
    }
  };

  // Special case: the root itself may be clean in the cache.
  {
    auto it = cache_.find(root);
    if (it != cache_.end() && !it->second.dirty) {
      memo_hits_->Increment();
      return it->second.digest;
    }
  }

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const storage::TreeNode& node = *tree_->GetNode(frame.id).value();
    if (frame.next_child < node.children.size()) {
      storage::ObjectId child = node.children[frame.next_child++];
      auto it = cache_.find(child);
      if (it != cache_.end() && !it->second.dirty) {
        memo_hits_->Increment();
        frame.child_hashes.push_back(it->second.digest);  // reuse, no walk
      } else {
        stack.push_back({child, 0, {}});
      }
      continue;
    }
    crypto::Digest digest =
        base_.HashNode(node.id, node.value, frame.child_hashes);
    cache_[frame.id] = Entry{digest, /*dirty=*/false};
    stack.pop_back();
    deliver(digest);
  }
  return result;
}

void EconomicalHasher::Invalidate(storage::ObjectId id) {
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    it->second.dirty = true;
  }
  for (storage::ObjectId ancestor : tree_->AncestorsOf(id)) {
    auto anc_it = cache_.find(ancestor);
    if (anc_it != cache_.end()) {
      if (anc_it->second.dirty) {
        break;  // already-dirty ancestor implies the rest are dirty too
      }
      anc_it->second.dirty = true;
    }
  }
}

void EconomicalHasher::Forget(storage::ObjectId id) { cache_.erase(id); }

Result<crypto::Digest> EconomicalHasher::CachedDigest(
    storage::ObjectId id) const {
  auto it = cache_.find(id);
  if (it == cache_.end() || it->second.dirty) {
    return Status::NotFound("no clean cached digest for object " +
                            std::to_string(id));
  }
  return it->second.digest;
}

}  // namespace provdb::provenance
