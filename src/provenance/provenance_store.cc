#include "provenance/provenance_store.h"

#include <algorithm>

#include "common/varint.h"
#include "provenance/checkpoint.h"
#include "provenance/serialization.h"

namespace provdb::provenance {

ProvenanceStore::~ProvenanceStore() { DestroyOwned(); }

ProvenanceStore::ProvenanceStore(ProvenanceStore&& other) noexcept {
  *this = std::move(other);
}

// Moves are writer-side operations: they require quiescence on both
// stores (no pinned reader may hold either store's versions), which
// every caller — recovery, checkpoint loading, test plumbing — satisfies.
ProvenanceStore& ProvenanceStore::operator=(ProvenanceStore&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  DestroyOwned();
  chunks_ = std::move(other.chunks_);
  record_count_ = other.record_count_;
  other.record_count_ = 0;
  pruned_ = std::move(other.pruned_);
  chain_root_ = other.chain_root_;
  other.chain_root_ = nullptr;
  aggregation_input_refs_ = std::move(other.aggregation_input_refs_);
  live_count_ = other.live_count_;
  other.live_count_ = 0;
  paper_schema_bytes_ = other.paper_schema_bytes_;
  other.paper_schema_bytes_ = 0;
  checksum_bytes_ = other.checksum_bytes_;
  other.checksum_bytes_ = 0;
  wal_ = other.wal_;
  other.wal_ = nullptr;
  domain_ = other.domain_;
  other.domain_ = nullptr;
  retired_ = std::move(other.retired_);
  published_.store(other.published_.exchange(nullptr,
                                             std::memory_order_relaxed),
                   std::memory_order_relaxed);
  spare_ = other.spare_;
  other.spare_ = nullptr;
  dirty_ = other.dirty_;
  other.dirty_ = false;
  publish_tick_ = other.publish_tick_;
  other.publish_tick_ = 0;
  return *this;
}

void ProvenanceStore::DestroyOwned() {
  // The current trie (and the chain cells its live leaves reach) is
  // owned here; every *superseded* node went through RetireOrDelete and
  // is either still in retired_ (unlinked since the last publish; no
  // reader can hold it at quiescence, so it is freed here) or the
  // domain's to free. The published version shares subtrees with the
  // current root, so only the version object itself is deleted.
  ChainIndex::FreeAll(chain_root_);
  chain_root_ = nullptr;
  retired_ = EpochDomain::RetireBuffer();
  delete published_.exchange(nullptr, std::memory_order_relaxed);
  delete spare_;
  spare_ = nullptr;
}

void ProvenanceStore::RetireOrDelete(EpochRetired* node) {
  if (domain_ != nullptr) {
    retired_.Add(node);
  } else {
    delete node;
  }
}

ProvenanceRecord* ProvenanceStore::ArenaAppend(ProvenanceRecord record) {
  if (record_count_ % kChunkRecords == 0) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  ProvenanceRecord* slot =
      &chunks_.back()->slots[record_count_ % kChunkRecords];
  *slot = std::move(record);
  ++record_count_;
  return slot;
}

void ProvenanceStore::MarkDirty() {
  dirty_ = true;
  if (domain_ != nullptr && spare_ == nullptr) {
    spare_ = new StoreVersion;
  }
}

void ProvenanceStore::PublishSnapshot() {
  if (domain_ == nullptr || !dirty_) {
    return;
  }
  StoreVersion* version = spare_;
  if (version == nullptr) {
    // Only reachable when the state was built without a domain and the
    // domain attached afterwards (recovery); steady-state publishes use
    // the skeleton MarkDirty preallocated and stay allocation-free.
    version = new StoreVersion;
  }
  version->root = chain_root_;
  version->record_count = record_count_;
  version->live_records = live_count_;
  version->tick = ++publish_tick_;
  StoreVersion* old =
      published_.exchange(version, std::memory_order_acq_rel);
  if (old != nullptr) {
    retired_.Add(old);
  }
  spare_ = nullptr;
  dirty_ = false;
  // Readers pinning from here on synchronize with this advance and
  // therefore see `version` (or newer) — the reclamation rule's anchor.
  // Everything unlinked since the last publish is stamped by it.
  domain_->AdvanceAndRetire(&retired_);
}

Result<uint64_t> ProvenanceStore::AddRecord(ProvenanceRecord record) {
  const storage::ObjectId id = record.output.object_id;
  const ChainIndex::Leaf* existing = ChainIndex::Find(chain_root_, id);
  const ChainNode* head = existing != nullptr ? existing->head : nullptr;
  if (head != nullptr) {
    const ProvenanceRecord& last = *head->record;
    if (record.seq_id <= last.seq_id) {
      return Status::FailedPrecondition(
          "records for object " + std::to_string(id) +
          " must have increasing seqIDs (have " +
          std::to_string(last.seq_id) + ", got " +
          std::to_string(record.seq_id) + ")");
    }
  }
  if (wal_ != nullptr) {
    // Write-ahead: the record reaches the durable log before the
    // in-memory store. If the WAL rejects it, the store stays unchanged
    // and the caller sees the I/O failure instead of diverging from disk.
    PROVDB_RETURN_IF_ERROR(wal_->Append(EncodeWalRecordEntry(record)));
  }
  const uint64_t index = record_count_;
  paper_schema_bytes_ += 12 + record.checksum.size();
  checksum_bytes_ += record.checksum.size();
  if (record.op == OperationType::kAggregate) {
    for (const ObjectState& input : record.inputs) {
      ++aggregation_input_refs_[input.object_id];
    }
  }
  ProvenanceRecord* slot = ArenaAppend(std::move(record));
  ChainNode* cell = new ChainNode;
  cell->record = slot;
  cell->index = index;
  cell->prev = head;
  cell->length = head != nullptr ? head->length + 1 : 1;
  ChainIndex::Leaf* leaf = new ChainIndex::Leaf;
  leaf->key = id;
  leaf->head = cell;
  chain_root_ = ChainIndex::Insert(chain_root_, leaf, RetireTarget());
  pruned_.push_back(false);
  ++live_count_;
  MarkDirty();
  return index;
}

Result<size_t> ProvenanceStore::PruneObject(storage::ObjectId id) {
  auto refs = aggregation_input_refs_.find(id);
  if (refs != aggregation_input_refs_.end() && refs->second > 0) {
    return Status::FailedPrecondition(
        "object " + std::to_string(id) + " is an aggregation input of " +
        std::to_string(refs->second) +
        " record(s); its provenance is still referenced downstream");
  }
  const ChainIndex::Leaf* leaf = ChainIndex::Find(chain_root_, id);
  const ChainNode* head = leaf != nullptr ? leaf->head : nullptr;
  if (head == nullptr) {
    return static_cast<size_t>(0);
  }
  if (wal_ != nullptr) {
    // Write-ahead, mirroring AddRecord: the prune marker reaches the
    // durable log before the store forgets the records, so recovery
    // replays the prune instead of resurrecting pruned history.
    PROVDB_RETURN_IF_ERROR(wal_->Append(EncodeWalPruneEntry(id)));
  }
  size_t dropped = 0;
  for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
    if (pruned_[cell->index]) {
      continue;
    }
    const ProvenanceRecord& rec = *cell->record;
    paper_schema_bytes_ -= 12 + rec.checksum.size();
    checksum_bytes_ -= rec.checksum.size();
    if (rec.op == OperationType::kAggregate) {
      for (const ObjectState& input : rec.inputs) {
        auto in_refs = aggregation_input_refs_.find(input.object_id);
        if (in_refs != aggregation_input_refs_.end() && in_refs->second > 0) {
          --in_refs->second;
        }
      }
    }
    pruned_[cell->index] = true;
    --live_count_;
    ++dropped;
  }
  // Tombstone the leaf (readers on older roots still see the chain) and
  // retire the now-unreachable cons cells behind the old head.
  ChainIndex::Leaf* tombstone = new ChainIndex::Leaf;
  tombstone->key = id;
  tombstone->head = nullptr;
  chain_root_ = ChainIndex::Insert(chain_root_, tombstone, RetireTarget());
  const ChainNode* cell = head;
  while (cell != nullptr) {
    const ChainNode* prev = cell->prev;
    RetireOrDelete(const_cast<ChainNode*>(cell));
    cell = prev;
  }
  MarkDirty();
  return dropped;
}

std::vector<uint64_t> ProvenanceStore::ChainOf(storage::ObjectId id) const {
  const ChainIndex::Leaf* leaf = ChainIndex::Find(chain_root_, id);
  const ChainNode* head = leaf != nullptr ? leaf->head : nullptr;
  if (head == nullptr) {
    return {};
  }
  std::vector<uint64_t> out(static_cast<size_t>(head->length));
  size_t pos = out.size();
  for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
    out[--pos] = cell->index;
  }
  return out;
}

Result<const ProvenanceRecord*> ProvenanceStore::LatestFor(
    storage::ObjectId id) const {
  const ChainIndex::Leaf* leaf = ChainIndex::Find(chain_root_, id);
  const ChainNode* head = leaf != nullptr ? leaf->head : nullptr;
  if (head == nullptr) {
    return Status::NotFound("no provenance records for object " +
                            std::to_string(id));
  }
  return head->record;
}

Result<std::vector<ProvenanceRecord>> ProvenanceStore::ExtractProvenance(
    storage::ObjectId subject) const {
  return ExtractProvenanceDeep(subject, {});
}

Result<std::vector<ProvenanceRecord>> ProvenanceStore::ExtractProvenanceDeep(
    storage::ObjectId subject,
    const std::vector<storage::ObjectId>& descendants) const {
  PROVDB_ASSIGN_OR_RETURN(
      std::vector<const ChainNode*> cells,
      QuiescentSnapshot().ClosureCells(subject, descendants));
  std::sort(cells.begin(), cells.end(),
            [](const ChainNode* a, const ChainNode* b) {
              return a->index < b->index;
            });
  std::vector<ProvenanceRecord> out;
  out.reserve(cells.size());
  for (const ChainNode* cell : cells) {
    out.push_back(*cell->record);
  }
  return out;
}

Status ProvenanceStore::AttachWal(storage::WalWriter* wal,
                                  bool checkpoint_existing) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a WAL is already attached");
  }
  if (checkpoint_existing) {
    // Only live records are checkpointed, so already-pruned history needs
    // no prune markers: the WAL starts from the post-prune state.
    for (uint64_t i = 0; i < record_count_; ++i) {
      if (!pruned_[i]) {
        PROVDB_RETURN_IF_ERROR(wal->Append(EncodeWalRecordEntry(record(i))));
      }
    }
  }
  wal_ = wal;
  return Status::OK();
}

Result<ProvenanceStore> ProvenanceStore::RecoverFromWal(
    storage::Env* env, const std::string& dir,
    storage::WalRecoveryReport* report,
    const crypto::SignatureVerifier* checkpoint_verifier) {
  // Checkpoint-bounded recovery: rebuild from the newest sealed snapshot
  // (if any) and replay only the WAL suffix past its horizon on top.
  ProvenanceStore store;
  storage::WalReaderOptions reader_options;
  uint64_t checkpoint_records = 0;
  Result<uint64_t> latest = LatestCheckpointHorizon(env, dir);
  if (latest.ok()) {
    if (checkpoint_verifier == nullptr) {
      return Status::FailedPrecondition(
          "a sealed checkpoint exists in " + dir +
          " but no verifier was supplied to check its seal");
    }
    PROVDB_ASSIGN_OR_RETURN(
        LoadedCheckpoint checkpoint,
        CheckpointReader::Load(env, CheckpointFileName(dir, latest.value()),
                               *checkpoint_verifier));
    reader_options.checkpoint_horizon = checkpoint.manifest.wal_horizon;
    checkpoint_records = checkpoint.manifest.live_records;
    store = std::move(checkpoint.store);
  } else if (latest.status().code() != StatusCode::kNotFound) {
    return latest.status();
  }

  PROVDB_ASSIGN_OR_RETURN(storage::WalReader reader,
                          storage::WalReader::Open(env, dir, reader_options));
  if (report != nullptr) {
    *report = reader.report();
    report->checkpoint_horizon = reader_options.checkpoint_horizon;
    report->checkpoint_records = checkpoint_records;
  }
  // Replay typed WAL entries: appends re-add, prune markers re-prune, so
  // the recovered store converges to the pre-crash state instead of
  // resurrecting pruned history.
  Status status = reader.log().ForEach([&](uint64_t, ByteView payload) {
    if (payload.empty()) {
      return Status::Corruption("empty WAL entry");
    }
    switch (payload[0]) {
      case static_cast<uint8_t>(WalEntryType::kRecord): {
        PROVDB_ASSIGN_OR_RETURN(ProvenanceRecord rec,
                                DecodeRecord(payload.subview(1)));
        return store.AddRecord(std::move(rec)).status();
      }
      case static_cast<uint8_t>(WalEntryType::kPrune): {
        VarintReader entry(payload.subview(1));
        PROVDB_ASSIGN_OR_RETURN(uint64_t id, entry.ReadVarint64());
        return store.PruneObject(id).status();
      }
      default:
        return Status::Corruption("unknown WAL entry type " +
                                  std::to_string(payload[0]));
    }
  });
  if (!status.ok()) {
    return status;
  }
  return store;
}

}  // namespace provdb::provenance
