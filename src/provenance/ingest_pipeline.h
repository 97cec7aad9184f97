#ifndef PROVDB_PROVENANCE_INGEST_PIPELINE_H_
#define PROVDB_PROVENANCE_INGEST_PIPELINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hashmix.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "crypto/pki.h"
#include "observability/metrics.h"
#include "provenance/chain.h"
#include "provenance/checksum.h"
#include "provenance/provenance_store.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace provdb::provenance {

/// One ingest operation, fully resolved by the producer: every hash and
/// every cross-object dependency (aggregate input states, their previous
/// checksums, the aggregate seqID) is materialized up front, so signing
/// and committing a request touches only its *output* object's chain.
/// That is what makes sharding by output object sound (§3.2: chains are
/// local, records for different objects never order against each other).
struct IngestRequest {
  OperationType op = OperationType::kInsert;
  /// The output object the record is for (shard routing key).
  storage::ObjectId object = storage::kInvalidObjectId;
  /// State hash of the output after the operation.
  crypto::Digest post_hash;
  /// Update only: state hash before the operation. When absent the input
  /// slot is a zero digest (bootstrap data, matching TrackedDatabase).
  bool has_pre_hash = false;
  crypto::Digest pre_hash;
  /// Aggregate only: input object states in ascending object-id order
  /// (the global total order the checksum formula requires).
  std::vector<ObjectState> inputs;
  /// Aggregate only: latest checksum of each input, aligned with
  /// `inputs`; empty entries for untracked inputs.
  std::vector<Bytes> input_prev_checksums;
  /// Aggregate only: 1 + max input seqID, computed by the producer (the
  /// inputs may live on other shards).
  SeqId aggregate_seq = 0;
  bool inherited = false;
  /// The acting participant (borrowed; must outlive the ingest).
  const crypto::Participant* participant = nullptr;
};

/// Builds and signs the provenance record for `request` given the current
/// tail of its output object's chain. Pure function of its arguments —
/// RSA signing is deterministic — so the sharded pipeline and a
/// sequential reference ingest produce bit-identical records; the
/// differential test harness is built on exactly this property.
Result<ProvenanceRecord> BuildSignedIngestRecord(
    const ChecksumEngine& engine, const LocalChainState::Tail& tail,
    const IngestRequest& request);

/// N independent ProvenanceStores, one per shard; every object's records
/// live wholly inside the shard its id mixes into. Sharding is by stable
/// hash of the *output* object id, so the assignment is a durable
/// on-disk contract (see common/hashmix.h).
///
/// Owns the epoch domain all its shards retire superseded index nodes
/// through, which makes OpenSnapshot() possible: a pinned, consistent
/// cross-shard cut readable while a single writer keeps mutating.
class ShardedProvenanceStore {
 public:
  explicit ShardedProvenanceStore(size_t num_shards);

  ShardedProvenanceStore(ShardedProvenanceStore&&) = default;
  ShardedProvenanceStore& operator=(ShardedProvenanceStore&&) = default;

  /// Which shard owns `id` under an `num_shards`-way split.
  static size_t ShardOf(storage::ObjectId id, size_t num_shards) {
    return static_cast<size_t>(Mix64(id) % num_shards);
  }

  /// `root/shard-NNN`, the WAL directory of shard `index`.
  static std::string ShardDirName(const std::string& root, size_t index);

  /// Rebuilds every shard from its WAL directory under `root`. A missing
  /// shard directory is an empty shard (the crash may have hit before its
  /// first batch); per-shard salvage reports are appended to `reports`
  /// when non-null, indexed by shard. Shards holding a sealed checkpoint
  /// recover from it plus their WAL suffix; `checkpoint_verifier` checks
  /// the seals (required once any shard has checkpointed — see
  /// ProvenanceStore::RecoverFromWal).
  ///
  /// With a `pool` of two or more threads every shard recovers on its
  /// own pool task; otherwise they recover one after another on the
  /// caller's thread. Either way the result is the same: the error is
  /// the lowest-indexed failing shard's, and `reports` gets the reports
  /// of the shards before it.
  static Result<ShardedProvenanceStore> Recover(
      storage::Env* env, const std::string& root, size_t num_shards,
      std::vector<storage::WalRecoveryReport>* reports = nullptr,
      const crypto::SignatureVerifier* checkpoint_verifier = nullptr,
      ThreadPool* pool = nullptr);

  size_t num_shards() const { return shards_.size(); }
  ProvenanceStore& shard(size_t index) { return shards_[index]; }
  const ProvenanceStore& shard(size_t index) const { return shards_[index]; }
  ProvenanceStore& shard_for(storage::ObjectId id) {
    return shards_[ShardOf(id, shards_.size())];
  }

  uint64_t record_count() const;
  uint64_t live_record_count() const;

  /// Every live chain across all shards, keyed (hence ordered) by object
  /// id — the exact shape VerifyRecordChains consumes. Chain order within
  /// an object is seqID order regardless of shard count, so downstream
  /// reports are byte-identical to a sequential store's. Walks each
  /// shard's CurrentView() trie, so — like ChainRecords — it needs the
  /// writer quiescent; live readers use OpenSnapshot().
  std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
  AllChains() const;

  /// The live chain of one object (empty when unknown or fully pruned).
  std::vector<const ProvenanceRecord*> ChainRecords(
      storage::ObjectId id) const;

  /// Cross-shard chain verification (§3 check 2 over every object),
  /// reusing the shared VerifyRecordChains engine. [[nodiscard]]: an
  /// unread report is an undetected tamper.
  [[nodiscard]] VerificationReport VerifyChains(
      const crypto::ParticipantRegistry& registry,
      crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1,
      ThreadPool* pool = nullptr) const;

  /// Pins the epoch domain and captures each shard's latest published
  /// version: a consistent cross-shard cut at batch boundaries,
  /// traversable lock-free while the writer keeps ingesting. Lock-free
  /// and allocation-light itself (one pin + one vector). See
  /// StoreSnapshot for the semantics.
  StoreSnapshot OpenSnapshot() const;

  /// Publishes every shard's current state (writer-side; requires the
  /// same external serialization as mutating the shards). The ingest
  /// pipeline publishes per-shard at each group-commit fsync instead;
  /// this entry point is for recovery seeding and directly-driven
  /// stores (tests, tools).
  void PublishAll();

  /// The domain protecting this store's snapshots.
  EpochDomain* epoch_domain() const { return domain_.get(); }

 private:
  /// Points every shard at domain_ — needed after recovery
  /// move-assigns freshly recovered stores into shards_.
  void AttachDomains();

  /// Declared before shards_ so it is destroyed after them: shard
  /// destructors free their live structures while retired nodes drain
  /// in the domain's destructor.
  std::unique_ptr<EpochDomain> domain_;
  std::vector<ProvenanceStore> shards_;
};

/// Periodic signed checkpoints (DESIGN.md §13). Inactive unless a signer
/// is set and at least one threshold is positive. When a shard's flush
/// commits and the shard has accumulated `every_records` records (or
/// `every_bytes` of WAL frames) since its last checkpoint, the pipeline
/// rolls the shard's WAL and seals a snapshot at the rolled horizon in
/// the background; once the seal is durable, the shard's next flush
/// garbage-collects the segments (and stale checkpoints) behind it.
/// While a shard's seal is in flight its thresholds keep accumulating,
/// and the next flush after the seal completes starts the next one.
struct CheckpointPolicy {
  uint64_t every_records = 0;
  uint64_t every_bytes = 0;
  /// Seals each checkpoint's root digest (borrowed; must outlive the
  /// pipeline). Recorded in the manifest as participant `sealer_id`.
  const crypto::Signer* signer = nullptr;
  uint64_t sealer_id = 0;
  /// Verifies existing checkpoint seals during Open recovery (borrowed).
  const crypto::SignatureVerifier* verifier = nullptr;

  bool enabled() const {
    return signer != nullptr && (every_records > 0 || every_bytes > 0);
  }
};

/// Tuning knobs for IngestPipeline.
struct IngestOptions {
  size_t num_shards = 1;

  /// Group commit: a shard's pending batch is flushed (signed, appended,
  /// one fsync, committed) once it holds this many requests...
  size_t max_batch_records = 64;
  /// ...or once its estimated WAL footprint reaches this many bytes...
  uint64_t max_batch_bytes = 1ull << 20;
  /// ...or, when > 0, once this many seconds have passed since the
  /// shard's last flush (checked on Submit; there is no timer thread).
  double flush_interval_seconds = 0;

  /// Baseline mode for benchmarks: flush every Submit and fsync after
  /// every single record (the paper-grade sync-per-append write path).
  bool sync_every_record = false;

  /// Signing fan-out across the pipeline's thread pool. Default
  /// sequential (no pool). The same pool runs Drain's per-shard append →
  /// fsync → commit tasks, so shard fsyncs overlap only when it exists.
  ParallelismConfig signing;

  crypto::HashAlgorithm hash_algorithm = crypto::HashAlgorithm::kSha1;

  /// Segment sizing for the per-shard WALs. `sync_every_append` and the
  /// WAL-level group-commit thresholds are ignored: the pipeline places
  /// every durability point itself (one Sync per batch).
  storage::WalOptions wal;

  /// Periodic per-shard checkpoint + WAL compaction policy.
  CheckpointPolicy checkpoint;
};

/// The sharded batched ingest engine. Requests are routed to a shard by
/// stable hash of their output object, buffered per shard, then flushed
/// as a batch: record signing fans out across the thread pool (grouped
/// by object, so a chain's records sign in order against the running
/// tail), the signed records are appended to the shard's WAL, *one*
/// fsync makes the whole batch durable, and only then is anything
/// committed in memory and published. Write-ahead ordering is therefore
/// preserved batch-wide: no in-memory commit ever precedes its
/// durability point.
///
/// Thread-safe, with per-shard flush ownership (DESIGN.md §12). A
/// shard's mutex guards only its pending buffer and a "flushing" flag.
/// The thread that takes a shard's batch owns that shard's WAL, chain
/// tails and store until it hands them back, and signs, appends, fsyncs,
/// commits and publishes with no mutex held — so producers on other
/// shards never wait out its fsync. Drain takes every shard with work,
/// signs all their record groups as one flat set on the pool, then runs
/// each shard's append → fsync → commit → publish as its own pool task,
/// so the shards' fsyncs overlap. Only routing, the failure latch and
/// the counters are pipeline-wide. A single producer produces
/// byte-identical records to a sequential ingest.
///
/// Checkpoints seal in the background (DESIGN.md §13): when the policy
/// fires, the flush owner rolls the shard's WAL, pins the epoch, and
/// hands the shard's just-published version to a single seal worker; the
/// shard's next flush owner deletes what the seal supersedes once it is
/// durable. Neither Submit nor Drain waits on a seal; CheckpointNow and
/// Close do, with no lock held.
///
/// Reading `store()` while other threads ingest is racy — call Drain()
/// first and read during quiescence, or read through OpenSnapshot().
/// After any flush or seal error the pipeline is poisoned — every later
/// Submit/Drain returns the same status — because a failed WAL append
/// leaves no safe way to keep ordering guarantees for subsequent records
/// of the same chain. A seal that fails in the background poisons it the
/// same way, while the batch that triggered the seal stays durable and
/// acked.
class IngestPipeline {
 public:
  /// Opens (or reopens) a pipeline rooted at `root_dir`: recovers any
  /// existing shard directories (in parallel on the signing pool, when
  /// `options.signing` asks for one), seeds every chain tail from the
  /// recovered records, and starts fresh WAL segments. Per-shard salvage
  /// reports land in `recovery_reports` when non-null.
  static Result<std::unique_ptr<IngestPipeline>> Open(
      storage::Env* env, const std::string& root_dir, IngestOptions options,
      std::vector<storage::WalRecoveryReport>* recovery_reports = nullptr);

  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Buffers one request on its shard, flushing the shard when a batch
  /// threshold fires. The request is neither durable nor visible in the
  /// store until its batch is flushed (Drain forces that).
  Status Submit(const IngestRequest& request);

  /// Barrier: flushes every shard's pending batch (sign, append, fsync,
  /// commit), waiting for flushes other threads have in progress. On
  /// return everything submitted before the call is durable and visible
  /// in the store. Does not wait for background seals.
  Status Drain();

  /// Drain, wait for in-flight seals (completing their GC), and close
  /// every shard WAL. Idempotent; further Submits fail.
  Status Close();

  /// Drains, then checkpoints every shard immediately, regardless of the
  /// policy thresholds (a signer must still be configured). Each shard's
  /// WAL is rolled, a sealed snapshot written at the rolled horizon, and
  /// the covered segments garbage-collected — including those of seals
  /// already in flight — before this returns. Shards with nothing new
  /// since their last checkpoint are skipped without I/O.
  Status CheckpointNow();

  /// Checkpoints sealed and completed for shard `index` since this
  /// pipeline opened.
  uint64_t shard_checkpoints(size_t index) const {
    return shards_[index]->checkpoints.load(std::memory_order_relaxed);
  }

  const ShardedProvenanceStore& store() const { return *store_; }
  ShardedProvenanceStore* mutable_store() { return store_.get(); }

  /// Opens a pinned snapshot of the store without taking any pipeline
  /// lock: snapshots never serialize against Submit/Drain. Safe because
  /// store_ is set once in Open and each shard's published version is
  /// reached through one atomic load under the epoch pin. Every
  /// published version is an exact prefix of that shard's durable
  /// (fsynced) batches — the pipeline publishes the epoch tick only
  /// after each group commit's fsync + in-memory commit.
  StoreSnapshot OpenSnapshot() const { return store_->OpenSnapshot(); }

  /// The shard's WAL writer (null after Close) — exposed for the
  /// fault-injection crash sweep, which asserts synced_records against
  /// committed counts. Read only while no flush is in progress.
  const storage::WalWriter* shard_wal(size_t index) const;

  uint64_t submitted() const {
    return submitted_count_.load(std::memory_order_relaxed);
  }
  uint64_t committed() const {
    return committed_count_.load(std::memory_order_relaxed);
  }
  const IngestOptions& options() const { return options_; }
  const std::string& root_dir() const { return root_dir_; }

 private:
  /// One shard. `mu` guards the pending buffer, the flushing and closed
  /// flags and the seal worker's hand-back. The fields under "flush
  /// owner" belong to the thread that set `flushing` and are touched with
  /// no lock held; ownership passes between threads through `mu`.
  struct Shard {
    Shard(storage::WalWriter w, ProvenanceStore* s)
        : wal(std::move(w)), store(s) {}

    Mutex mu;
    /// Signalled when `flushing` clears or a seal finishes.
    CondVar changed{&mu};
    std::vector<IngestRequest> pending PROVDB_GUARDED_BY(mu);
    uint64_t pending_bytes PROVDB_GUARDED_BY(mu) = 0;
    Stopwatch since_flush PROVDB_GUARDED_BY(mu);
    bool flushing PROVDB_GUARDED_BY(mu) = false;
    /// Set by Close while it owns the shard, after its last flush: no
    /// request may be buffered here any more.
    bool closed PROVDB_GUARDED_BY(mu) = false;
    bool seal_done PROVDB_GUARDED_BY(mu) = false;
    Status seal_status PROVDB_GUARDED_BY(mu) = Status::OK();

    // --- Flush owner ---
    storage::WalWriter wal;
    bool wal_open = true;
    ProvenanceStore* store;  // this shard of store_
    LocalChainState chains;
    /// Committed work since the shard's last seal started — what the
    /// CheckpointPolicy thresholds fire against.
    uint64_t records_since_checkpoint = 0;
    uint64_t bytes_since_checkpoint = 0;
    /// Horizon of the seal handed to the worker and not yet completed;
    /// 0 when none is in flight (a shard has at most one).
    uint64_t seal_horizon = 0;

    std::atomic<uint64_t> checkpoints{0};
  };

  /// One shard's batch on its way through a flush (ingest_pipeline.cc).
  struct Batch;

  IngestPipeline(storage::Env* env, std::string root_dir,
                 IngestOptions options);

  /// Waits until no other thread owns `shard`, takes ownership, and
  /// returns its pending requests (possibly none). Fails, without taking
  /// ownership, once Close has closed the shard.
  Result<std::vector<IngestRequest>> AcquireShard(Shard* shard,
                                                  const char* operation);
  std::vector<IngestRequest> TakePendingLocked(Shard* shard)
      PROVDB_REQUIRES(shard->mu);
  void ReleaseShard(Shard* shard);

  /// Flushes `requests` taken from `shard`, which the caller owns.
  Status FlushOwned(Shard* shard, std::vector<IngestRequest> requests);
  /// Signs every batch's groups as one flat set, then persists each
  /// batch (its shard owned by the caller) — on its own pool task when
  /// there are several, so their fsyncs overlap.
  Status FlushBatches(std::vector<Batch>* batches);
  Status SignGroup(Batch* batch, size_t group) const;
  /// Append → fsync → commit → publish, then the seal bookkeeping.
  Status PersistBatch(Batch* batch);

  /// Roll → pin → hand the shard's published version to the seal
  /// worker. A no-op when nothing new lies behind the roll point.
  Status StartSeal(Shard* shard);
  /// Once the in-flight seal is durable, deletes the checkpoints and
  /// WAL segments it supersedes. With `wait`, blocks until the worker is
  /// done; otherwise returns at once when it is not.
  Status CompleteSeal(Shard* shard, bool wait);
  ThreadPool* SealWorker();

  /// Flushes every shard with work; the body of Drain().
  Status DrainShards();

  /// Latches the first failure; returns the latched status (OK when
  /// `status` is OK and nothing failed before).
  Status Poison(const Status& status);
  /// The latched failure, else kFailedPrecondition once closed.
  Status CheckOpen(const char* operation) const;

  storage::Env* env_;
  std::string root_dir_;
  IngestOptions options_;
  ChecksumEngine engine_;
  /// Set once in Open, like shards_ (the vector; each shard guards its
  /// own state).
  std::unique_ptr<ShardedProvenanceStore> store_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;  // null when signing is sequential

  mutable Mutex latch_mu_;
  Status failed_ PROVDB_GUARDED_BY(latch_mu_) =
      Status::OK();  // poison; see class comment
  bool closed_ PROVDB_GUARDED_BY(latch_mu_) = false;
  std::atomic<uint64_t> submitted_count_{0};
  std::atomic<uint64_t> committed_count_{0};

  // Ingest observability (docs/OBSERVABILITY.md).
  observability::Counter* submitted_;
  observability::Counter* committed_;
  observability::Counter* batches_;
  observability::Counter* batch_bytes_;
  observability::Counter* sign_tasks_;
  observability::Gauge* pending_;
  observability::Gauge* checkpoint_inflight_;
  observability::Histogram* flush_latency_;
  observability::Histogram* drain_latency_;

  /// The single-thread seal worker, created by the first seal. Declared
  /// last so it is destroyed first: a seal still queued when the
  /// pipeline dies (the crash model) finishes while the shards, store
  /// and epoch domain it reads are alive.
  std::unique_ptr<ThreadPool> seal_worker_ PROVDB_GUARDED_BY(latch_mu_);
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_INGEST_PIPELINE_H_
