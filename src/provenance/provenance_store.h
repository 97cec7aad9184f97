#ifndef PROVDB_PROVENANCE_PROVENANCE_STORE_H_
#define PROVDB_PROVENANCE_PROVENANCE_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "common/result.h"
#include "provenance/chain_index.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"
#include "storage/wal.h"

namespace provdb::crypto {
class SignatureVerifier;
}  // namespace provdb::crypto

namespace provdb::provenance {

/// The provenance database (§5.1): an append-only collection of provenance
/// records with a per-output-object index. A provenance *object* —
/// Definition 1's partially-ordered record set for one data object — is
/// materialized on demand by ExtractProvenance, which follows aggregation
/// edges transitively (the non-linear DAG of Figure 2).
///
/// Concurrency model (DESIGN.md §16): the store is single-writer. Records
/// live in chunked stable storage (a record, once added, never moves) and
/// the per-object chain index is a copy-on-write radix trie whose
/// replaced nodes are retired through an attached epoch domain. The
/// writer makes its state visible to concurrent readers only at explicit
/// PublishSnapshot() points (the ingest pipeline calls one per
/// group-commit fsync), so a published version is always an exact prefix
/// of durable batches. Readers never touch writer state: they pin the
/// epoch domain and traverse a published version (see StoreSnapshot).
/// Without an attached domain the store behaves exactly as before:
/// mutations and reads must be externally serialized (quiescence), and
/// superseded index nodes are freed immediately.
class ProvenanceStore {
 public:
  ProvenanceStore() = default;
  ~ProvenanceStore();

  ProvenanceStore(const ProvenanceStore&) = delete;
  ProvenanceStore& operator=(const ProvenanceStore&) = delete;
  ProvenanceStore(ProvenanceStore&& other) noexcept;
  ProvenanceStore& operator=(ProvenanceStore&& other) noexcept;

  /// Appends a record; returns its stable index. Records for the same
  /// output object must arrive in increasing seqID order (enforced).
  Result<uint64_t> AddRecord(ProvenanceRecord record);

  uint64_t record_count() const { return record_count_; }

  const ProvenanceRecord& record(uint64_t index) const {
    return chunks_[index / kChunkRecords]->slots[index % kChunkRecords];
  }

  /// Mutable access — exists solely so the attack simulator and tests can
  /// model a tampering adversary. Honest code never calls this.
  ProvenanceRecord* mutable_record(uint64_t index) {
    return &chunks_[index / kChunkRecords]->slots[index % kChunkRecords];
  }

  /// Indices of the records whose *output* object is `id`, in seqID order
  /// (the object's chain, §3).
  std::vector<uint64_t> ChainOf(storage::ObjectId id) const;

  /// Latest (greatest-seqID) record for `id`, or kNotFound.
  Result<const ProvenanceRecord*> LatestFor(storage::ObjectId id) const;

  /// Materializes the provenance object for `subject`: its full chain plus,
  /// transitively, the chains (up to the matching state) of every
  /// aggregation input — StoreSnapshot::ClosureCells over the quiescent
  /// snapshot. Records are returned in index order, which is a linear
  /// extension of the seqID partial order (and the order recipient
  /// bundles are encoded in).
  Result<std::vector<ProvenanceRecord>> ExtractProvenance(
      storage::ObjectId subject) const;

  /// Fine-grained variant: everything ExtractProvenance returns, plus the
  /// full chains of `descendants` (every object inside the shipped
  /// compound object, so recipients see cell-level history — e.g. exactly
  /// who amended which cell — not just the subject's inherited records).
  Result<std::vector<ProvenanceRecord>> ExtractProvenanceDeep(
      storage::ObjectId subject,
      const std::vector<storage::ObjectId>& descendants) const;

  /// Space occupied under the paper's experiment schema (§5.1):
  /// <SeqID(int), Participant(int), Oid(int), Checksum(binary(128))>,
  /// i.e. 12 bytes + the actual checksum width per record. This is the
  /// metric behind Figures 9 and 11.
  uint64_t PaperSchemaBytes() const { return paper_schema_bytes_; }

  /// Total bytes of the stored checksums alone.
  uint64_t ChecksumBytes() const { return checksum_bytes_; }

  /// Write-ahead logging: after this, every AddRecord (and PruneObject)
  /// first appends a typed WAL entry — record append or prune marker,
  /// see serialization.h — to `wal` and fails (without mutating the
  /// store) if the WAL append fails. With `checkpoint_existing`, the
  /// store's current live records are appended to the WAL first, so a
  /// WAL attached to a non-empty store still replays to the full store.
  /// Recovery flows (store already rebuilt *from* this WAL) pass false.
  /// `wal` is borrowed, not owned, and must outlive the store or be
  /// detached.
  Status AttachWal(storage::WalWriter* wal, bool checkpoint_existing = true);

  void DetachWal() { wal_ = nullptr; }

  storage::WalWriter* attached_wal() const { return wal_; }

  /// Crash recovery: replays the WAL directory at `dir` into a fresh
  /// store — record entries re-add, prune markers re-prune, so pruned
  /// history stays pruned after recovery. Torn-tail salvage details
  /// (dropped byte counts) are returned through `report` when non-null;
  /// corruption before the tail fails with kCorruption (see DESIGN.md §8
  /// for the decision rule).
  ///
  /// Checkpoint-bounded recovery (DESIGN.md §13): when `dir` holds a
  /// sealed checkpoint, the store is rebuilt from the newest one and only
  /// the WAL suffix past its horizon is replayed — O(delta), not
  /// O(history). The checkpoint's seal must verify under
  /// `checkpoint_verifier`; a checkpoint with no verifier supplied is
  /// kFailedPrecondition (recovering *around* an unverifiable snapshot
  /// would silently drop its history), and a tampered one is refused
  /// exactly like a tampered record.
  static Result<ProvenanceStore> RecoverFromWal(
      storage::Env* env, const std::string& dir,
      storage::WalRecoveryReport* report = nullptr,
      const crypto::SignatureVerifier* checkpoint_verifier = nullptr);

  /// Footnote-3 optimization: after an object is deleted, its provenance
  /// object is no longer relevant and its records may be dropped. Refuses
  /// (kFailedPrecondition) when the object is an aggregation input of any
  /// record — that history *is* still referenced by downstream provenance
  /// and pruning it would break verification of the aggregate (this is
  /// also why local chaining makes pruning safe at all, §3.2). With a
  /// WAL attached, a prune marker is logged write-ahead so the prune
  /// survives crash recovery. Returns the number of records pruned.
  Result<size_t> PruneObject(storage::ObjectId id);

  /// True when `index` refers to a pruned (tombstoned) record.
  bool is_pruned(uint64_t index) const { return pruned_[index]; }

  /// Records currently live (record_count() minus pruned ones).
  uint64_t live_record_count() const { return live_count_; }

  // --- Snapshot machinery (DESIGN.md §16) ---

  /// Attaches the epoch domain that retires superseded index nodes and
  /// store versions. Set by the owning ShardedProvenanceStore; a store
  /// without a domain frees superseded nodes immediately and never
  /// publishes (single-threaded contract).
  void AttachEpochDomain(EpochDomain* domain) { domain_ = domain; }
  EpochDomain* epoch_domain() const { return domain_; }

  /// Publishes the current state as an immutable StoreVersion and starts
  /// a new epoch. The hot-path cost is POD fills, one atomic store, one
  /// intrusive retire, and one epoch advance — zero allocation (the
  /// version skeleton is preallocated by the mutation that dirtied the
  /// store; pinned by the alloc test). Writer-side: must be externally
  /// serialized with mutations. No-op when nothing changed or no domain
  /// is attached. The ingest pipeline calls this once per group-commit
  /// fsync, so published versions are always durable-batch prefixes.
  void PublishSnapshot();

  /// Last published version (null before the first publish). Readers
  /// must hold an epoch pin to traverse it — see StoreSnapshot.
  const StoreVersion* published_version() const {
    return published_.load(std::memory_order_acquire);
  }

  /// View of the *writer-current* state (which may be ahead of the last
  /// published version). Only valid under the single-writer contract:
  /// the caller must guarantee no concurrent mutation for the view's
  /// lifetime — QuiescentSnapshot, ShardedProvenanceStore::AllChains and
  /// TrackedDatabase::CheckpointWal run on exactly that contract.
  StoreReadView CurrentView() const {
    return StoreReadView(chain_root_, record_count_, live_count_,
                         publish_tick_);
  }

  /// The store's one read interface: an unpinned one-view snapshot of
  /// CurrentView(), so queries, audits and extraction over a quiescent
  /// store run the same code as over a live sharded one. Same contract as
  /// CurrentView(): no concurrent mutation while the snapshot is read.
  StoreSnapshot QuiescentSnapshot() const {
    return StoreSnapshot(EpochDomain::Guard(), {CurrentView()});
  }

 private:
  /// Records per storage chunk. Chunked storage gives every record a
  /// stable address for its whole lifetime (chain cells and snapshot
  /// readers hold plain pointers), unlike a reallocating vector.
  static constexpr uint64_t kChunkRecords = 256;
  struct Chunk {
    std::array<ProvenanceRecord, kChunkRecords> slots;
  };

  /// Appends into chunked storage; returns the record's stable address.
  ProvenanceRecord* ArenaAppend(ProvenanceRecord record);

  /// Marks writer state as ahead of the published version and
  /// preallocates the next publish's version skeleton (so the publish
  /// hook itself never allocates).
  void MarkDirty();

  /// Buffers a node unlinked from the working trie until the next
  /// publish hands it to the domain, or frees it immediately without one.
  void RetireOrDelete(EpochRetired* node);
  EpochDomain::RetireBuffer* RetireTarget() {
    return domain_ != nullptr ? &retired_ : nullptr;
  }

  /// Frees everything this store owns (current trie + chain cells,
  /// published/spare versions). Retired nodes belong to the domain.
  void DestroyOwned();

  std::vector<std::unique_ptr<Chunk>> chunks_;
  uint64_t record_count_ = 0;
  std::vector<bool> pruned_;
  /// Copy-on-write chain index over the records (current writer root).
  const ChainIndex::Node* chain_root_ = nullptr;
  /// Objects consumed by some aggregation (prune-protected).
  std::unordered_map<storage::ObjectId, uint64_t> aggregation_input_refs_;
  uint64_t live_count_ = 0;
  uint64_t paper_schema_bytes_ = 0;
  uint64_t checksum_bytes_ = 0;
  storage::WalWriter* wal_ = nullptr;  // borrowed; see AttachWal

  EpochDomain* domain_ = nullptr;  // borrowed; see AttachEpochDomain
  /// Nodes unlinked since the last publish (see PublishSnapshot).
  EpochDomain::RetireBuffer retired_;
  std::atomic<StoreVersion*> published_{nullptr};
  StoreVersion* spare_ = nullptr;  // preallocated next version
  bool dirty_ = false;             // writer state ahead of published_
  uint64_t publish_tick_ = 0;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_PROVENANCE_STORE_H_
