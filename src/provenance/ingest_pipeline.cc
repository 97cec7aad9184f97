#include "provenance/ingest_pipeline.h"

#include <cstdio>
#include <future>
#include <unordered_map>
#include <utility>

#include "observability/trace.h"
#include "provenance/checkpoint.h"
#include "provenance/serialization.h"

namespace provdb::provenance {
namespace {

/// Rough WAL footprint of a request's eventual record frame, for the
/// max_batch_bytes threshold: fixed framing plus an RSA-1024 checksum,
/// plus every digest the record will carry. Only a flush heuristic —
/// exactness is not required, monotonicity is.
uint64_t EstimateRequestBytes(const IngestRequest& request) {
  uint64_t bytes = 160 + request.post_hash.size();
  if (request.has_pre_hash) {
    bytes += request.pre_hash.size();
  }
  for (size_t i = 0; i < request.inputs.size(); ++i) {
    bytes += 8 + request.inputs[i].state_hash.size();
  }
  return bytes;
}

Status ValidateRequest(const IngestRequest& request) {
  if (request.participant == nullptr) {
    return Status::InvalidArgument("ingest request has no participant");
  }
  if (request.object == storage::kInvalidObjectId) {
    return Status::InvalidArgument("ingest request has no output object");
  }
  if (request.op == OperationType::kAggregate) {
    if (request.inputs.empty()) {
      return Status::InvalidArgument("aggregate requires at least one input");
    }
    if (request.input_prev_checksums.size() != request.inputs.size()) {
      return Status::InvalidArgument(
          "aggregate prev-checksum count does not match its inputs");
    }
    for (size_t i = 1; i < request.inputs.size(); ++i) {
      if (request.inputs[i].object_id <= request.inputs[i - 1].object_id) {
        return Status::InvalidArgument(
            "aggregate inputs must be strictly ascending by object id");
      }
    }
  } else if (!request.inputs.empty() ||
             !request.input_prev_checksums.empty()) {
    // Insert has no inputs; an update's single input is derived from the
    // request's own object and pre-hash, never supplied explicitly.
    return Status::InvalidArgument(
        "only aggregate requests carry explicit inputs");
  }
  return Status::OK();
}

Status ClosedStatus(const char* operation) {
  return Status::FailedPrecondition(std::string(operation) +
                                    " on closed ingest pipeline");
}

}  // namespace

// ---------------------------------------------------------------------------
// BuildSignedIngestRecord
// ---------------------------------------------------------------------------

Result<ProvenanceRecord> BuildSignedIngestRecord(
    const ChecksumEngine& engine, const LocalChainState::Tail& tail,
    const IngestRequest& request) {
  PROVDB_RETURN_IF_ERROR(ValidateRequest(request));

  ProvenanceRecord record;
  record.participant = request.participant->id();
  record.op = request.op;
  record.inherited = request.inherited;
  record.output = ObjectState{request.object, request.post_hash};

  Bytes payload;
  switch (request.op) {
    case OperationType::kInsert: {
      if (tail.exists) {
        return Status::FailedPrecondition(
            "insert for object " + std::to_string(request.object) +
            " which already has a chain");
      }
      record.seq_id = 0;
      payload = engine.BuildInsertPayload(request.post_hash);
      break;
    }
    case OperationType::kUpdate: {
      // Bootstrap objects (no chain yet) start at seq 0 with an empty
      // previous-checksum slot, matching TrackedDatabase::EmitRecord.
      record.seq_id = tail.exists ? tail.seq_id + 1 : 0;
      crypto::Digest in_hash =
          request.has_pre_hash ? request.pre_hash : crypto::Digest();
      record.inputs.push_back(ObjectState{request.object, in_hash});
      payload = engine.BuildUpdatePayload(in_hash, request.post_hash,
                                          tail.checksum);
      break;
    }
    case OperationType::kAggregate: {
      if (tail.exists) {
        return Status::FailedPrecondition(
            "aggregate output object " + std::to_string(request.object) +
            " already has a chain");
      }
      std::vector<crypto::Digest> input_hashes;
      input_hashes.reserve(request.inputs.size());
      for (size_t i = 0; i < request.inputs.size(); ++i) {
        input_hashes.push_back(request.inputs[i].state_hash);
      }
      record.seq_id = request.aggregate_seq;
      record.inputs = request.inputs;
      payload = engine.BuildAggregatePayload(input_hashes, request.post_hash,
                                             request.input_prev_checksums);
      break;
    }
  }

  PROVDB_ASSIGN_OR_RETURN(
      record.checksum,
      engine.SignPayload(request.participant->signer(), payload));
  return record;
}

// ---------------------------------------------------------------------------
// ShardedProvenanceStore
// ---------------------------------------------------------------------------

ShardedProvenanceStore::ShardedProvenanceStore(size_t num_shards)
    : domain_(std::make_unique<EpochDomain>()),
      shards_(num_shards == 0 ? 1 : num_shards) {
  AttachDomains();
}

void ShardedProvenanceStore::AttachDomains() {
  for (ProvenanceStore& shard : shards_) {
    shard.AttachEpochDomain(domain_.get());
  }
}

StoreSnapshot ShardedProvenanceStore::OpenSnapshot() const {
  // Pin first, then load each shard's published version: the pin
  // guarantees nothing loaded afterwards is reclaimed while the
  // snapshot lives.
  EpochDomain::Guard guard = domain_->Pin();
  std::vector<StoreReadView> views;
  views.reserve(shards_.size());
  for (const ProvenanceStore& shard : shards_) {
    views.emplace_back(shard.published_version());
  }
  return StoreSnapshot(std::move(guard), std::move(views));
}

void ShardedProvenanceStore::PublishAll() {
  for (ProvenanceStore& shard : shards_) {
    shard.PublishSnapshot();
  }
  domain_->Collect();
}

std::string ShardedProvenanceStore::ShardDirName(const std::string& root,
                                                 size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03zu", index);
  return root + "/" + buf;
}

Result<ShardedProvenanceStore> ShardedProvenanceStore::Recover(
    storage::Env* env, const std::string& root, size_t num_shards,
    std::vector<storage::WalRecoveryReport>* reports,
    const crypto::SignatureVerifier* checkpoint_verifier, ThreadPool* pool) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  ShardedProvenanceStore store(num_shards);
  std::vector<storage::WalRecoveryReport> shard_reports(num_shards);
  std::vector<Status> statuses(num_shards);
  // A missing directory is an empty shard: the crash may have hit before
  // this shard received its first batch. It needs no recovery task.
  std::vector<size_t> present;
  for (size_t i = 0; i < num_shards; ++i) {
    if (env->FileExists(ShardDirName(root, i))) {
      present.push_back(i);
    }
  }
  // Shards share nothing on disk or in memory, so each recovers on its
  // own task; every task writes only its own slots.
  auto recover_shard = [&](size_t i) {
    Result<ProvenanceStore> shard = ProvenanceStore::RecoverFromWal(
        env, ShardDirName(root, i), &shard_reports[i], checkpoint_verifier);
    if (shard.ok()) {
      store.shards_[i] = std::move(shard).value();
    } else {
      statuses[i] = shard.status();
    }
  };
  if (pool != nullptr && pool->size() > 1 && present.size() > 1) {
    std::vector<std::future<void>> tasks;
    tasks.reserve(present.size());
    for (size_t i : present) {
      tasks.push_back(pool->Submit([&recover_shard, i] { recover_shard(i); }));
    }
    for (std::future<void>& task : tasks) {
      task.get();
    }
  } else {
    for (size_t i : present) {
      recover_shard(i);
      if (!statuses[i].ok()) {
        break;
      }
    }
  }
  // The lowest failing shard decides the error, whatever order the tasks
  // finished in; the reports before it are still appended, as a
  // sequential recovery that stopped there would have.
  for (size_t i = 0; i < num_shards; ++i) {
    if (!statuses[i].ok()) {
      if (reports != nullptr) {
        reports->insert(reports->end(), shard_reports.begin(),
                        shard_reports.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return statuses[i];
    }
  }
  if (reports != nullptr) {
    reports->insert(reports->end(), shard_reports.begin(),
                    shard_reports.end());
  }
  // Recovery built the shards domainless (RecoverFromWal returns
  // standalone stores); re-attach and publish so snapshots opened right
  // after recovery already see the recovered (durable) state.
  store.AttachDomains();
  store.PublishAll();
  return store;
}

uint64_t ShardedProvenanceStore::record_count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    total += shards_[i].record_count();
  }
  return total;
}

uint64_t ShardedProvenanceStore::live_record_count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    total += shards_[i].live_record_count();
  }
  return total;
}

std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
ShardedProvenanceStore::AllChains() const {
  std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>> chains;
  for (const ProvenanceStore& shard : shards_) {
    shard.CurrentView().AppendChains(&chains);
  }
  return chains;
}

std::vector<const ProvenanceRecord*> ShardedProvenanceStore::ChainRecords(
    storage::ObjectId id) const {
  return shards_[ShardOf(id, shards_.size())].CurrentView().ChainRecords(id);
}

VerificationReport ShardedProvenanceStore::VerifyChains(
    const crypto::ParticipantRegistry& registry, crypto::HashAlgorithm alg,
    ThreadPool* pool) const {
  ChecksumEngine engine(alg);
  VerificationReport report;
  VerifyRecordChains(registry, engine, AllChains(), &report, pool);
  return report;
}

// ---------------------------------------------------------------------------
// IngestPipeline
// ---------------------------------------------------------------------------

struct IngestPipeline::Batch {
  Shard* shard = nullptr;
  std::vector<IngestRequest> requests;
  /// Request indices per output object, in first-appearance order.
  /// Records of one object must sign sequentially against the running
  /// chain tail; distinct objects' groups are independent (§3.2) and fan
  /// out across the pool.
  std::vector<std::vector<size_t>> groups;
  std::vector<ProvenanceRecord> records;
  Status status = Status::OK();
};

IngestPipeline::IngestPipeline(storage::Env* env, std::string root_dir,
                               IngestOptions options)
    : env_(env),
      root_dir_(std::move(root_dir)),
      options_(options),
      engine_(options.hash_algorithm),
      submitted_(observability::GlobalMetrics().counter("ingest.submitted")),
      committed_(observability::GlobalMetrics().counter("ingest.committed")),
      batches_(observability::GlobalMetrics().counter("ingest.batches")),
      batch_bytes_(
          observability::GlobalMetrics().counter("ingest.batch_bytes")),
      sign_tasks_(
          observability::GlobalMetrics().counter("ingest.sign_tasks")),
      pending_(observability::GlobalMetrics().gauge("ingest.pending")),
      checkpoint_inflight_(
          observability::GlobalMetrics().gauge("checkpoint.inflight")),
      flush_latency_(observability::GlobalMetrics().histogram(
          "ingest.flush.latency_us")),
      drain_latency_(observability::GlobalMetrics().histogram(
          "ingest.drain.latency_us")) {}

// No Close in the destructor: like WalWriter, destruction without Close
// models a crash (nothing un-synced becomes durable), which the
// fault-injection sweep relies on. Clean shutdown is explicit Close().
// The seal worker is destroyed first (see its declaration), so a seal
// still queued finishes while the shards, store and epoch domain it
// reads are alive.
IngestPipeline::~IngestPipeline() = default;

Result<std::unique_ptr<IngestPipeline>> IngestPipeline::Open(
    storage::Env* env, const std::string& root_dir, IngestOptions options,
    std::vector<storage::WalRecoveryReport>* recovery_reports) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ingest pipeline needs at least 1 shard");
  }
  if (options.max_batch_records == 0) {
    return Status::InvalidArgument("max_batch_records must be at least 1");
  }
  // The pipeline places every durability point itself — one Sync per
  // flushed batch — so WAL-level auto-sync must stay off.
  options.wal.sync_every_append = false;
  options.wal.group_commit_records = 0;
  options.wal.group_commit_bytes = 0;

  PROVDB_RETURN_IF_ERROR(env->CreateDir(root_dir));
  // The pool exists before recovery so the shards recover on it, one
  // task each. Its new threads take over the malloc arenas that a closed
  // pipeline's workers left behind, so a reopen rebuilds the store in
  // memory the process already holds instead of beside it.
  std::unique_ptr<ThreadPool> pool;
  if (!options.signing.sequential()) {
    pool = std::make_unique<ThreadPool>(
        static_cast<size_t>(options.signing.num_threads));
  }
  std::vector<storage::WalRecoveryReport> reports;
  PROVDB_ASSIGN_OR_RETURN(
      ShardedProvenanceStore recovered,
      ShardedProvenanceStore::Recover(env, root_dir, options.num_shards,
                                      &reports, options.checkpoint.verifier,
                                      pool.get()));

  std::unique_ptr<IngestPipeline> pipeline(
      new IngestPipeline(env, root_dir, options));
  pipeline->pool_ = std::move(pool);
  pipeline->store_ =
      std::make_unique<ShardedProvenanceStore>(std::move(recovered));

  for (size_t i = 0; i < options.num_shards; ++i) {
    // The recovered horizon flows into the writer so fresh segments are
    // numbered past GC'd history and never resurrect a deleted index.
    storage::WalOptions wal_options = options.wal;
    wal_options.checkpoint_horizon = reports[i].checkpoint_horizon;
    PROVDB_ASSIGN_OR_RETURN(
        storage::WalWriter wal,
        storage::WalWriter::Open(
            env, ShardedProvenanceStore::ShardDirName(root_dir, i),
            wal_options));
    ProvenanceStore* store = &pipeline->store_->shard(i);
    auto shard = std::make_unique<Shard>(std::move(wal), store);
    // Seed every chain tail from the recovered chain heads so reopened
    // chains continue exactly where the durable log left them.
    store->CurrentView().ForEachChain(
        [&](storage::ObjectId id, const ChainNode* head) {
          shard->chains.Set(id, head->record->seq_id, head->record->checksum);
        });
    pipeline->shards_.push_back(std::move(shard));
  }

  if (recovery_reports != nullptr) {
    for (size_t i = 0; i < reports.size(); ++i) {
      recovery_reports->push_back(reports[i]);
    }
  }
  return pipeline;
}

const storage::WalWriter* IngestPipeline::shard_wal(size_t index) const {
  const Shard& shard = *shards_[index];
  return shard.wal_open ? &shard.wal : nullptr;
}

Status IngestPipeline::Poison(const Status& status) {
  MutexLock lock(&latch_mu_);
  if (failed_.ok() && !status.ok()) {
    failed_ = status;
  }
  return failed_;
}

Status IngestPipeline::CheckOpen(const char* operation) const {
  MutexLock lock(&latch_mu_);
  if (!failed_.ok()) return failed_;
  if (closed_) return ClosedStatus(operation);
  return Status::OK();
}

Result<std::vector<IngestRequest>> IngestPipeline::AcquireShard(
    Shard* shard, const char* operation) {
  MutexLock lock(&shard->mu);
  while (shard->flushing) {
    shard->changed.Wait();
  }
  if (shard->closed) return ClosedStatus(operation);
  shard->flushing = true;
  return TakePendingLocked(shard);
}

std::vector<IngestRequest> IngestPipeline::TakePendingLocked(Shard* shard) {
  std::vector<IngestRequest> batch = std::move(shard->pending);
  shard->pending.clear();
  shard->pending_bytes = 0;
  shard->since_flush.Restart();
  pending_->Sub(static_cast<int64_t>(batch.size()));
  return batch;
}

void IngestPipeline::ReleaseShard(Shard* shard) {
  MutexLock lock(&shard->mu);
  shard->flushing = false;
  shard->changed.SignalAll();
}

Status IngestPipeline::Submit(const IngestRequest& request) {
  PROVDB_RETURN_IF_ERROR(CheckOpen("submit"));
  PROVDB_RETURN_IF_ERROR(ValidateRequest(request));

  Shard* shard =
      shards_[ShardedProvenanceStore::ShardOf(request.object, shards_.size())]
          .get();
  std::vector<IngestRequest> batch;
  {
    MutexLock lock(&shard->mu);
    // Close may have run since CheckOpen; a request buffered behind its
    // last flush of this shard would never become durable.
    if (shard->closed) {
      return CheckOpen("submit");
    }
    submitted_count_.fetch_add(1, std::memory_order_relaxed);
    submitted_->Increment();
    pending_->Add(1);
    shard->pending.push_back(request);
    shard->pending_bytes += EstimateRequestBytes(request);
    const bool threshold =
        options_.sync_every_record ||
        shard->pending.size() >= options_.max_batch_records ||
        shard->pending_bytes >= options_.max_batch_bytes ||
        (options_.flush_interval_seconds > 0 &&
         shard->since_flush.ElapsedSeconds() >=
             options_.flush_interval_seconds);
    if (!threshold) {
      return Status::OK();
    }
    // Another producer may own the shard; wait for it, then flush what
    // has accumulated. Nothing left means that owner took this request
    // along with its own batch and its outcome is in the latch.
    while (shard->flushing) {
      shard->changed.Wait();
    }
    if (shard->pending.empty()) {
      return Poison(Status::OK());
    }
    shard->flushing = true;
    batch = TakePendingLocked(shard);
  }
  // Poison before handing the shard back, so a producer that waited on
  // this flush sees its outcome.
  Status status = Poison(FlushOwned(shard, std::move(batch)));
  ReleaseShard(shard);
  return status;
}

Status IngestPipeline::FlushOwned(Shard* shard,
                                  std::vector<IngestRequest> requests) {
  if (requests.empty()) {
    return Status::OK();
  }
  std::vector<Batch> batches(1);
  batches[0].shard = shard;
  batches[0].requests = std::move(requests);
  return FlushBatches(&batches);
}

Status IngestPipeline::SignGroup(Batch* batch, size_t group) const {
  const std::vector<size_t>& indices = batch->groups[group];
  LocalChainState::Tail tail =
      batch->shard->chains.Get(batch->requests[indices[0]].object);
  for (size_t idx : indices) {
    PROVDB_ASSIGN_OR_RETURN(
        ProvenanceRecord rec,
        BuildSignedIngestRecord(engine_, tail, batch->requests[idx]));
    tail = LocalChainState::Tail{rec.seq_id, rec.checksum, true};
    batch->records[idx] = std::move(rec);
  }
  return Status::OK();
}

Status IngestPipeline::FlushBatches(std::vector<Batch>* batches) {
  if (batches->empty()) {
    return Status::OK();
  }
  observability::TraceSpan span("ingest.flush");
  Stopwatch watch;

  // Sign: every batch's object groups as one flat task set, so no
  // shard's signing waits behind another shard's barrier.
  std::vector<std::pair<Batch*, size_t>> groups;
  for (Batch& batch : *batches) {
    std::unordered_map<storage::ObjectId, size_t> group_of;
    for (size_t i = 0; i < batch.requests.size(); ++i) {
      auto [it, inserted] =
          group_of.emplace(batch.requests[i].object, batch.groups.size());
      if (inserted) {
        batch.groups.emplace_back();
        groups.emplace_back(&batch, batch.groups.size() - 1);
      }
      batch.groups[it->second].push_back(i);
    }
    batch.records.resize(batch.requests.size());
  }
  if (pool_ != nullptr && groups.size() > 1) {
    std::vector<std::future<Status>> futures;
    futures.reserve(groups.size());
    for (const auto& [batch, g] : groups) {
      futures.push_back(pool_->Submit(
          [this, batch = batch, g = g] { return SignGroup(batch, g); }));
    }
    sign_tasks_->Add(groups.size());
    for (size_t i = 0; i < futures.size(); ++i) {
      Status s = futures[i].get();
      Batch* batch = groups[i].first;
      if (batch->status.ok() && !s.ok()) {
        batch->status = s;
      }
    }
  } else {
    for (const auto& [batch, g] : groups) {
      if (batch->status.ok()) {
        batch->status = SignGroup(batch, g);
      }
    }
  }

  // Persist: each shard's append → fsync → commit → publish on its own
  // pool task so the fsyncs overlap; inline when one shard has work.
  auto persist = [this, &watch](Batch* batch) {
    if (batch->status.ok()) {
      batch->status = PersistBatch(batch);
    }
    flush_latency_->Record(static_cast<uint64_t>(watch.ElapsedMicros()));
  };
  if (pool_ != nullptr && batches->size() > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(batches->size());
    for (Batch& batch : *batches) {
      futures.push_back(
          pool_->Submit([&persist, batch = &batch] { persist(batch); }));
    }
    for (std::future<void>& future : futures) {
      future.get();
    }
  } else {
    for (Batch& batch : *batches) {
      persist(&batch);
    }
  }
  for (const Batch& batch : *batches) {
    PROVDB_RETURN_IF_ERROR(batch.status);
  }
  return Status::OK();
}

Status IngestPipeline::PersistBatch(Batch* batch) {
  Shard* shard = batch->shard;
  std::vector<ProvenanceRecord>& records = batch->records;

  // Write-ahead, then the batch's single durability point, then — and
  // only then — the in-memory commit. Under sync_every_record every
  // record gets its own durability point before its commit instead.
  auto commit_one = [&](ProvenanceRecord&& rec) -> Status {
    const storage::ObjectId id = rec.output.object_id;
    const SeqId seq = rec.seq_id;
    Bytes checksum = rec.checksum;
    PROVDB_RETURN_IF_ERROR(shard->store->AddRecord(std::move(rec)).status());
    shard->chains.Set(id, seq, std::move(checksum));
    committed_count_.fetch_add(1, std::memory_order_relaxed);
    committed_->Increment();
    return Status::OK();
  };

  uint64_t flushed_bytes = 0;
  if (options_.sync_every_record) {
    for (size_t i = 0; i < records.size(); ++i) {
      Bytes entry = EncodeWalRecordEntry(records[i]);
      flushed_bytes += entry.size();
      PROVDB_RETURN_IF_ERROR(shard->wal.Append(entry));
      PROVDB_RETURN_IF_ERROR(shard->wal.Sync());
      PROVDB_RETURN_IF_ERROR(commit_one(std::move(records[i])));
    }
  } else {
    for (size_t i = 0; i < records.size(); ++i) {
      Bytes entry = EncodeWalRecordEntry(records[i]);
      flushed_bytes += entry.size();
      PROVDB_RETURN_IF_ERROR(shard->wal.Append(entry));
    }
    PROVDB_RETURN_IF_ERROR(shard->wal.Sync());
    for (size_t i = 0; i < records.size(); ++i) {
      PROVDB_RETURN_IF_ERROR(commit_one(std::move(records[i])));
    }
  }

  batches_->Increment();
  batch_bytes_->Add(flushed_bytes);

  // The batch is durable (fsynced) and committed — publish the epoch
  // tick. Everything a concurrent snapshot can now observe is an exact
  // prefix of durable batches. PublishSnapshot is allocation-free
  // (preallocated version skeleton); Collect only frees superseded
  // nodes no pinned reader can reach.
  shard->store->PublishSnapshot();
  store_->epoch_domain()->Collect();

  shard->records_since_checkpoint += records.size();
  shard->bytes_since_checkpoint += flushed_bytes;
  PROVDB_RETURN_IF_ERROR(CompleteSeal(shard, /*wait=*/false));
  const CheckpointPolicy& policy = options_.checkpoint;
  if (policy.enabled() && shard->seal_horizon == 0 &&
      ((policy.every_records > 0 &&
        shard->records_since_checkpoint >= policy.every_records) ||
       (policy.every_bytes > 0 &&
        shard->bytes_since_checkpoint >= policy.every_bytes))) {
    PROVDB_RETURN_IF_ERROR(StartSeal(shard));
  }
  return Status::OK();
}

ThreadPool* IngestPipeline::SealWorker() {
  MutexLock lock(&latch_mu_);
  if (seal_worker_ == nullptr) {
    seal_worker_ = std::make_unique<ThreadPool>(1);
  }
  return seal_worker_.get();
}

Status IngestPipeline::StartSeal(Shard* shard) {
  // Ordering is the crash-safety argument (DESIGN.md §13): roll first so
  // the horizon is a closed segment, seal the snapshot (tmp + rename,
  // atomic), and only once the seal is durable delete covered segments
  // and stale checkpoints (CompleteSeal). A crash after the roll costs
  // an extra segment; during the seal, recovery still uses the previous
  // checkpoint plus every segment after it, the fresh one included;
  // after the seal, recovery prefers the new checkpoint and skips the
  // not-yet-deleted history.
  PROVDB_ASSIGN_OR_RETURN(uint64_t horizon, shard->wal.RollSegment());
  shard->records_since_checkpoint = 0;
  shard->bytes_since_checkpoint = 0;
  if (horizon <= shard->wal.checkpoint_horizon()) {
    // Nothing durable past the last checkpoint; the existing seal stands.
    return Status::OK();
  }
  // This owner published last, so the shard's published version holds
  // exactly the WAL content up to `horizon`. The pin keeps it readable
  // while later flush owners keep ingesting.
  EpochDomain::Guard guard = store_->epoch_domain()->Pin();
  const StoreReadView view(shard->store->published_version());
  {
    MutexLock lock(&shard->mu);
    shard->seal_done = false;
  }
  shard->seal_horizon = horizon;
  checkpoint_inflight_->Add(1);
  SealWorker()->Submit([this, shard, view, horizon, dir = shard->wal.dir(),
                        guard = std::move(guard)]() mutable {
    Status sealed = CheckpointWriter::Write(
        env_, dir, view, horizon, *options_.checkpoint.signer,
        options_.checkpoint.sealer_id, options_.hash_algorithm);
    // Unpin before reporting: whoever waits for this seal may next
    // expect a quiescent epoch domain.
    guard = EpochDomain::Guard();
    checkpoint_inflight_->Sub(1);
    // Latch a failure before the owner can observe the seal as done.
    (void)Poison(sealed);
    MutexLock lock(&shard->mu);
    shard->seal_status = sealed;
    shard->seal_done = true;
    shard->changed.SignalAll();
  });
  return Status::OK();
}

Status IngestPipeline::CompleteSeal(Shard* shard, bool wait) {
  if (shard->seal_horizon == 0) {
    return Status::OK();
  }
  Status sealed = Status::OK();
  {
    MutexLock lock(&shard->mu);
    if (!shard->seal_done && !wait) {
      return Status::OK();
    }
    while (!shard->seal_done) {
      shard->changed.Wait();
    }
    sealed = shard->seal_status;
  }
  const uint64_t horizon = shard->seal_horizon;
  shard->seal_horizon = 0;
  PROVDB_RETURN_IF_ERROR(sealed);
  const std::string& dir = shard->wal.dir();
  PROVDB_RETURN_IF_ERROR(RemoveStaleCheckpoints(env_, dir, horizon));
  PROVDB_RETURN_IF_ERROR(shard->wal.GarbageCollect(horizon));
  shard->checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status IngestPipeline::CheckpointNow() {
  PROVDB_RETURN_IF_ERROR(CheckOpen("checkpoint"));
  if (options_.checkpoint.signer == nullptr) {
    return Status::FailedPrecondition(
        "ingest pipeline has no checkpoint signer configured");
  }
  PROVDB_RETURN_IF_ERROR(DrainShards());
  for (const std::unique_ptr<Shard>& owned : shards_) {
    Shard* shard = owned.get();
    // Requests submitted since the drain flush first, so the seal below
    // covers everything submitted before this call returned from it.
    PROVDB_ASSIGN_OR_RETURN(std::vector<IngestRequest> requests,
                            AcquireShard(shard, "checkpoint"));
    Status status = FlushOwned(shard, std::move(requests));
    if (status.ok()) status = CompleteSeal(shard, /*wait=*/true);
    if (status.ok()) status = StartSeal(shard);
    if (status.ok()) status = CompleteSeal(shard, /*wait=*/true);
    status = Poison(status);
    ReleaseShard(shard);
    PROVDB_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Status IngestPipeline::Drain() {
  {
    MutexLock lock(&latch_mu_);
    if (!failed_.ok()) return failed_;
    if (closed_) return Status::OK();
  }
  return DrainShards();
}

Status IngestPipeline::DrainShards() {
  observability::ScopedLatencyTimer timer(drain_latency_);
  observability::TraceSpan span("ingest.drain");
  // Take every shard in index order — the one order any multi-shard
  // owner uses, so concurrent drains cannot deadlock. Waiting for a
  // shard another thread is flushing is what makes Drain a barrier for
  // the requests that thread already took.
  std::vector<Batch> batches;
  for (const std::unique_ptr<Shard>& owned : shards_) {
    Result<std::vector<IngestRequest>> requests =
        AcquireShard(owned.get(), "drain");
    if (!requests.ok()) {
      // Closed: Close flushed this shard for the last time.
      continue;
    }
    if (requests->empty()) {
      ReleaseShard(owned.get());
      continue;
    }
    batches.emplace_back();
    batches.back().shard = owned.get();
    batches.back().requests = std::move(*requests);
  }
  Status status = Poison(FlushBatches(&batches));
  for (Batch& batch : batches) {
    ReleaseShard(batch.shard);
  }
  return status;
}

Status IngestPipeline::Close() {
  Status failed = Status::OK();
  {
    MutexLock lock(&latch_mu_);
    if (closed_) return Status::OK();
    closed_ = true;
    failed = failed_;
  }
  Status drain = failed.ok() ? DrainShards() : failed;
  Status close_status = Status::OK();
  for (const std::unique_ptr<Shard>& owned : shards_) {
    Shard* shard = owned.get();
    // Requests a racing producer added after the drain flush too, unless
    // the pipeline is poisoned (then nothing more may commit). A producer
    // whose request this flush takes reads its outcome from the latch.
    // Only Close closes a shard, and it runs once, so this cannot fail.
    Result<std::vector<IngestRequest>> late = AcquireShard(shard, "close");
    if (!late.ok()) return late.status();
    Status status =
        drain.ok() ? Poison(FlushOwned(shard, std::move(*late))) : drain;
    // Always wait for an in-flight seal: the worker must be done with
    // the shard before its WAL closes.
    Status sealed = CompleteSeal(shard, /*wait=*/true);
    if (status.ok()) status = sealed;
    if (shard->wal_open) {
      Status closed = shard->wal.Close();
      shard->wal_open = false;
      if (status.ok()) status = closed;
    }
    {
      // Before the hand-back, so no producer can buffer a request here
      // after this shard's last flush.
      MutexLock lock(&shard->mu);
      shard->closed = true;
    }
    ReleaseShard(shard);
    if (close_status.ok()) close_status = status;
  }
  if (!drain.ok()) return drain;
  return close_status;
}

}  // namespace provdb::provenance
