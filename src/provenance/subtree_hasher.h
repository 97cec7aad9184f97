#ifndef PROVDB_PROVENANCE_SUBTREE_HASHER_H_
#define PROVDB_PROVENANCE_SUBTREE_HASHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/result.h"
#include "common/thread_pool.h"
#include "crypto/digest.h"
#include "crypto/hash.h"
#include "observability/metrics.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// Domain-separation tags prefixed to node-hash preimages. A leaf can
/// never collide with an interior node whose child digests happen to
/// decode as value bytes.
inline constexpr uint8_t kLeafNodeTag = 0x4C;      // 'L'
inline constexpr uint8_t kInteriorNodeTag = 0x4E;  // 'N'

/// The per-node hash underlying the recursive compound hash:
///   H( tag | enc(id) | enc(value) | child_hash_1 | ... | child_hash_k )
/// with `tag` distinguishing leaves from interior nodes. `child_hashes`
/// must be ordered by ascending child object id (the global total order).
/// Free function so subtree snapshots and the streaming hasher compute
/// identical digests without a TreeStore.
crypto::Digest HashTreeNode(crypto::HashAlgorithm alg, storage::ObjectId id,
                            const storage::Value& value,
                            const std::vector<crypto::Digest>& child_hashes);

/// Computes the recursive compound-object hash of §4.3 (Figure 5):
///
///   h(subtree(A)) = H( tag | enc(A.id) | enc(A.value) | h(c_1) | ... | h(c_k) )
///
/// where c_1 < ... < c_k are A's children in the global total order
/// (ascending object id) and `tag` distinguishes leaves from interior
/// nodes so a leaf can never collide with an empty-children encoding of an
/// interior node. Object ids are part of the hash — this is what lets a
/// verifier detect provenance re-attribution to a different object (R5).
///
/// Two strategies are provided, matching the paper:
///  * **Basic** — rehash every node of the subtree on each call.
///  * **Economical** — memoize per-node hashes (EconomicalHasher below);
///    an update dirties only the path from the changed node to the root,
///    so rehashing touches O(changed + height) nodes instead of the whole
///    tree.
class SubtreeHasher {
 public:
  /// `tree` must outlive the hasher.
  SubtreeHasher(const storage::TreeStore* tree,
                crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1);

  /// Basic approach: full recursive walk, no caching. Safe to call from
  /// several threads at once (the tree is only read; the work counter is
  /// atomic).
  [[nodiscard]] Result<crypto::Digest> HashSubtreeBasic(
      storage::ObjectId root) const;

  /// Basic walk fanned out over `pool`: the subtrees of root's children
  /// are hashed on at most `pool->size()` tasks, each over a contiguous
  /// run of children (child digests combine in
  /// ascending-id order, §4.3, so the digest is identical to the
  /// sequential walk). Falls back to the sequential walk when `pool` is
  /// null, has a single worker, or the root has fewer than two children.
  /// Must not be called from inside a task running on the same pool.
  [[nodiscard]] Result<crypto::Digest> HashSubtreeBasic(
      storage::ObjectId root, ThreadPool* pool) const;

  /// Hash of one node given already-known child digests. Exposed for the
  /// streaming hasher and tests.
  crypto::Digest HashNode(storage::ObjectId id, const storage::Value& value,
                          const std::vector<crypto::Digest>& child_hashes) const;

  /// `h(A, val)` for an atomic (leaf) object — the Section 3 object hash.
  crypto::Digest HashAtomic(storage::ObjectId id,
                            const storage::Value& value) const;

  crypto::HashAlgorithm algorithm() const { return alg_; }

  /// Nodes hashed since construction / ResetCounters (work metric for the
  /// Fig. 7 Basic-vs-Economical comparison). Atomic so concurrent
  /// HashSubtreeBasic calls (the parallel auditor sweep) count correctly.
  uint64_t nodes_hashed() const {
    return nodes_hashed_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    nodes_hashed_.store(0, std::memory_order_relaxed);
  }

 private:
  /// The basic post-order walk, touching no shared counter: it adds the
  /// nodes it hashed to `*hashed`, and its caller reports them through
  /// CountWork once per walk — per-node atomics shared by every pool
  /// task would cost more than hashing a small node.
  Result<crypto::Digest> WalkBasic(storage::ObjectId root,
                                   uint64_t* hashed) const;
  void CountWork(uint64_t subtree_calls, uint64_t nodes_hashed) const;

  const storage::TreeStore* tree_;
  crypto::HashAlgorithm alg_;
  mutable std::atomic<uint64_t> nodes_hashed_{0};

  // Process-wide mirrors of the per-hasher work counters, making the
  // Basic-vs-Economical rehash gap continuously visible via
  // `provdb stats` (docs/OBSERVABILITY.md).
  observability::Counter* nodes_hashed_total_;
  observability::Counter* subtree_calls_;
};

/// The Economical approach of §4.3: keeps a per-node digest cache.
/// Callers notify the hasher of mutations (`Invalidate`, `Forget`); cached
/// clean digests are reused, so re-hashing after an update costs one walk
/// of the changed paths instead of the whole tree.
class EconomicalHasher {
 public:
  EconomicalHasher(const storage::TreeStore* tree,
                   crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1);

  /// Hash of subtree(root), reusing every clean cached digest.
  [[nodiscard]] Result<crypto::Digest> HashSubtree(storage::ObjectId root);

  /// Marks `id` and all its ancestors dirty (call after Update/Insert of
  /// `id`, and after Delete with the *parent's* id).
  void Invalidate(storage::ObjectId id);

  /// Drops cache entries for a deleted object.
  void Forget(storage::ObjectId id);

  /// Cached digest for `id` if present and clean.
  Result<crypto::Digest> CachedDigest(storage::ObjectId id) const;

  /// Number of cached entries.
  size_t cache_size() const { return cache_.size(); }

  /// Nodes actually hashed (cache misses) since ResetCounters.
  uint64_t nodes_hashed() const { return base_.nodes_hashed(); }
  void ResetCounters() { base_.ResetCounters(); }

  const SubtreeHasher& base() const { return base_; }

 private:
  struct Entry {
    crypto::Digest digest;
    bool dirty = true;
  };

  const storage::TreeStore* tree_;
  SubtreeHasher base_;
  std::unordered_map<storage::ObjectId, Entry> cache_;
  observability::Counter* memo_hits_;  // clean cached digests reused
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_SUBTREE_HASHER_H_
