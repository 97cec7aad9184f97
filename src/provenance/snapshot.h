#ifndef PROVDB_PROVENANCE_SNAPSHOT_H_
#define PROVDB_PROVENANCE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/epoch.h"
#include "common/hashmix.h"
#include "common/result.h"
#include "provenance/chain_index.h"
#include "provenance/record.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// One shard's immutable state at a publish point (a group-commit batch
/// boundary). The writer fills a preallocated spare and publishes it with
/// a single atomic store — the ingest hot path's snapshot cost is that
/// store plus retiring the previous version, nothing else. Readers reach
/// versions only through an epoch pin (StoreSnapshot), which is what
/// keeps `root` traversable while the writer keeps path-copying.
struct StoreVersion : EpochRetired {
  const ChainIndex::Node* root = nullptr;
  uint64_t record_count = 0;
  uint64_t live_records = 0;
  /// Publish sequence number: the how-many-th batch boundary this is for
  /// the shard. Strictly increasing; the differential harness uses it to
  /// name the durable batch prefix a snapshot corresponds to.
  uint64_t tick = 0;
};

/// Read-only view of one shard at one version. Plain value type: copying
/// copies three pointers-worth of state, no ownership. A view is only
/// valid while the version it came from is protected — either by the
/// snapshot's epoch pin or by caller-guaranteed store quiescence
/// (ProvenanceStore::CurrentView).
class StoreReadView {
 public:
  StoreReadView() = default;
  /// From a published version; a null version is an empty view (shard
  /// that has never published — zero durable batches).
  explicit StoreReadView(const StoreVersion* version)
      : root_(version != nullptr ? version->root : nullptr),
        record_count_(version != nullptr ? version->record_count : 0),
        live_records_(version != nullptr ? version->live_records : 0),
        tick_(version != nullptr ? version->tick : 0) {}
  StoreReadView(const ChainIndex::Node* root, uint64_t record_count,
                uint64_t live_records, uint64_t tick)
      : root_(root),
        record_count_(record_count),
        live_records_(live_records),
        tick_(tick) {}

  uint64_t record_count() const { return record_count_; }
  uint64_t live_record_count() const { return live_records_; }
  uint64_t tick() const { return tick_; }

  /// Newest chain cell for `id`; null when the object has no live chain
  /// in this view (unknown, or pruned — tombstone).
  const ChainNode* head_for(storage::ObjectId id) const;

  /// The object's chain in seqID order (empty when none).
  std::vector<const ProvenanceRecord*> ChainRecords(storage::ObjectId id) const;

  /// Every live chain, appended into `out` keyed by object id — the
  /// exact shape VerifyRecordChains consumes. Within an object the chain
  /// is in seqID order.
  void AppendChains(
      std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>* out)
      const;

  /// Visits each live chain head (tombstones skipped).
  template <typename Fn>
  void ForEachChain(Fn&& fn) const {
    ChainIndex::ForEachLeaf(root_, [&](const ChainIndex::Leaf& leaf) {
      if (leaf.head != nullptr) {
        fn(leaf.key, leaf.head);
      }
    });
  }

 private:
  const ChainIndex::Node* root_ = nullptr;
  uint64_t record_count_ = 0;
  uint64_t live_records_ = 0;
  uint64_t tick_ = 0;
};

/// A consistent cross-shard cut of a (possibly moving) sharded store,
/// pinned in the store's epoch domain for its whole lifetime. Each
/// shard's view is that shard's latest *published* version — always an
/// exact prefix of its durable, fsynced batches, never a half-applied
/// batch — so verify/audit/query over a snapshot read stable immutable
/// state while ingest keeps committing.
///
/// Shards are cut independently (each at its own batch boundary), which
/// is the strongest guarantee a sharded store offers: §3.2 chains are
/// per-object and objects never span shards, so every chain in a
/// snapshot is internally consistent; only cross-shard aggregate-input
/// lookups can see "input chain not yet caught up", exactly as a
/// quiesced store stopped at the same per-shard prefixes would.
///
/// A snapshot borrows the store: it must not outlive the
/// ShardedProvenanceStore (or IngestPipeline) it was opened on. Holding
/// one blocks no writer — it only defers reclamation of superseded
/// chain/index nodes.
///
/// A quiescent single store is read the same way, through an unpinned
/// one-view snapshot of its writer-current state
/// (ProvenanceStore::QuiescentSnapshot): every read job — queries, the
/// auditor, extraction — has exactly one implementation, over this type.
class StoreSnapshot {
 public:
  StoreSnapshot() = default;
  StoreSnapshot(EpochDomain::Guard guard, std::vector<StoreReadView> views)
      : guard_(std::move(guard)), views_(std::move(views)) {}
  StoreSnapshot(StoreSnapshot&&) = default;
  StoreSnapshot& operator=(StoreSnapshot&&) = default;

  size_t num_shards() const { return views_.size(); }
  const StoreReadView& shard_view(size_t index) const { return views_[index]; }
  const StoreReadView& view_for(storage::ObjectId id) const {
    return views_[ShardOf(id)];
  }
  size_t ShardOf(storage::ObjectId id) const {
    return static_cast<size_t>(Mix64(id) % views_.size());
  }

  /// The epoch this snapshot is pinned at (0 when unpinned: an empty or
  /// a quiescent snapshot).
  uint64_t epoch() const { return guard_.epoch(); }

  uint64_t record_count() const;
  uint64_t live_record_count() const;

  /// Every live chain across all shards, keyed (hence ordered) by
  /// object id — same shape and order as ShardedProvenanceStore::
  /// AllChains, so reports built from either are byte-identical on a
  /// quiescent store.
  std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
  AllChains() const;

  /// The live chain of one object (empty when unknown or pruned).
  std::vector<const ProvenanceRecord*> ChainRecords(storage::ObjectId id)
      const;

  /// The provenance object of `subject` (§5.1): its chain plus,
  /// transitively, every aggregation input's chain up to the matching
  /// state. Records come back in ascending (object id, seqID) order — the
  /// sharded deployment's canonical linear extension of the seqID partial
  /// order.
  Result<std::vector<ProvenanceRecord>> ExtractProvenance(
      storage::ObjectId subject) const;

  /// Fine-grained variant: also the full chains of `descendants` (every
  /// object inside a shipped compound object).
  Result<std::vector<ProvenanceRecord>> ExtractProvenanceDeep(
      storage::ObjectId subject,
      const std::vector<storage::ObjectId>& descendants) const;

  /// The DAG closure behind every ExtractProvenance: the chain cells of
  /// the subject's and each descendant's chain plus, following
  /// aggregation edges transitively, of every input's chain up to the
  /// record that produced the consumed state. Unordered — each caller
  /// sorts into the linear extension it publishes. kNotFound when the
  /// subject has no live chain.
  Result<std::vector<const ChainNode*>> ClosureCells(
      storage::ObjectId subject,
      const std::vector<storage::ObjectId>& descendants) const;

 private:
  EpochDomain::Guard guard_;
  std::vector<StoreReadView> views_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_SNAPSHOT_H_
