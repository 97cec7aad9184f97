#ifndef PROVDB_TESTS_TESTING_DIFFERENTIAL_H_
#define PROVDB_TESTS_TESTING_DIFFERENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "provenance/chain.h"
#include "provenance/checksum.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/provenance_store.h"
#include "provenance/snapshot.h"
#include "provenance/subtree_hasher.h"
#include "storage/env.h"
#include "storage/tree_store.h"
#include "storage/value.h"
#include "testing/test_pki.h"

namespace provdb::testing {

/// Differential-test harness: builds one workload twice — as a stream of
/// fully-resolved IngestRequests (to replay through the sharded
/// pipeline) and as a sequential reference ProvenanceStore built inline
/// through the same BuildSignedIngestRecord — so tests can assert the
/// two sides are bit-identical. RSA signing is deterministic, which is
/// what makes byte-level comparison possible at all.
///
/// The builder owns a real TreeStore and hashes real subtree state, so
/// the reference side is also auditable against the live tree.
class IngestWorkloadBuilder {
 public:
  explicit IngestWorkloadBuilder(
      crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1);

  IngestWorkloadBuilder(const IngestWorkloadBuilder&) = delete;
  IngestWorkloadBuilder& operator=(const IngestWorkloadBuilder&) = delete;

  /// Tracked insert: new root-level object with a provenance record.
  Result<storage::ObjectId> Insert(size_t participant_idx,
                                   const storage::Value& value);

  /// Bootstrap data: an object placed in the tree with *no* provenance
  /// record — it predates collection; its first update starts the chain
  /// at seq 0 with an empty previous-checksum slot.
  Result<storage::ObjectId> AddBootstrapObject(const storage::Value& value);

  /// Tracked update of an existing object.
  Status Update(storage::ObjectId id, size_t participant_idx,
                const storage::Value& value);

  /// Tracked aggregation of ≥1 existing objects into a fresh compound
  /// object (inputs deduplicated and sorted into the global order).
  Result<storage::ObjectId> Aggregate(
      const std::vector<storage::ObjectId>& inputs, size_t participant_idx,
      const storage::Value& root_value);

  const std::vector<provenance::IngestRequest>& requests() const {
    return requests_;
  }
  const provenance::ProvenanceStore& reference_store() const {
    return reference_;
  }
  const storage::TreeStore& tree() const { return tree_; }
  const crypto::ParticipantRegistry& registry() const {
    return pki_->registry();
  }
  crypto::HashAlgorithm algorithm() const { return alg_; }
  /// Every object with at least one provenance record, in creation order.
  const std::vector<storage::ObjectId>& tracked_objects() const {
    return tracked_;
  }

  /// True once `id` has a chain. Aggregates must only consume tracked
  /// inputs: an aggregate over an untracked object whose chain starts
  /// *later* records an input state no record output ever matches, which
  /// the verifier rightly reports as unresolvable.
  bool IsTracked(storage::ObjectId id) const {
    return chains_.Get(id).exists;
  }

 private:
  /// Signs `request` against the reference chain tail, commits it to the
  /// reference store, and appends it to the request stream.
  Status Apply(provenance::IngestRequest request);

  crypto::HashAlgorithm alg_;
  TestPki* pki_;
  provenance::ChecksumEngine engine_;
  storage::TreeStore tree_;
  provenance::SubtreeHasher hasher_;
  provenance::LocalChainState chains_;
  provenance::ProvenanceStore reference_;
  std::vector<provenance::IngestRequest> requests_;
  std::vector<storage::ObjectId> tracked_;
};

/// Shape of the random workload.
struct DifferentialWorkloadOptions {
  size_t num_ops = 60;
  size_t bootstrap_objects = 3;
  double insert_weight = 0.40;
  double update_weight = 0.45;  // remainder is aggregate
};

/// Drives `num_ops` random operations (insert/update/aggregate mix with
/// skewed object popularity — early objects are hot) into `builder`,
/// reproducibly from `seed`. Log the seed on failure to replay.
Status RandomDifferentialWorkload(IngestWorkloadBuilder* builder,
                                  uint64_t seed,
                                  const DifferentialWorkloadOptions& options =
                                      DifferentialWorkloadOptions());

/// Removes every file under `root`'s shard-* subdirectories (leftovers
/// from a previous test-binary run would be recovered as live history).
/// The directories themselves may remain; an empty shard dir recovers to
/// an empty shard.
Status WipeIngestRoot(storage::Env* env, const std::string& root);

/// Replays a request stream through a fresh sharded pipeline rooted at
/// `root_dir` and closes it cleanly; the returned (closed) pipeline
/// exposes the resulting ShardedProvenanceStore for comparison.
Result<std::unique_ptr<provenance::IngestPipeline>> ReplayThroughPipeline(
    storage::Env* env, const std::string& root_dir,
    const std::vector<provenance::IngestRequest>& requests,
    provenance::IngestOptions options);

/// Checks that the one read path answers alike over two snapshots: for
/// every object in `objects`, ExtractProvenance, SummarizeLineage,
/// ParticipantTouched, HistorySlice and DirectSources return the same
/// status code and byte-identical answers, and RecordsByParticipant
/// agrees for every test participant (plus an unknown one). `expected`
/// is typically a quiesced reference read through
/// ProvenanceStore::QuiescentSnapshot; `actual` a sharded or live cut.
Status CheckSameReads(const provenance::StoreSnapshot& actual,
                      const provenance::StoreSnapshot& expected,
                      const std::vector<storage::ObjectId>& objects);

// ---------------------------------------------------------------------
// Concurrent-auditor mode (DESIGN.md §16): audit a *moving* pipeline.
// ---------------------------------------------------------------------

/// What the auditor side of RunConcurrentAuditDifferential observed.
struct ConcurrentAuditStats {
  /// Snapshots opened and fully validated while the writer was live.
  size_t snapshots_checked = 0;
  /// How many of them were non-empty (saw at least one durable batch).
  size_t nonempty_snapshots = 0;
  /// Distinct total record counts observed across cuts — > 1 proves the
  /// auditor actually raced a moving store rather than a finished one.
  size_t distinct_cuts = 0;
};

/// The indices (into builder.requests(), and so into its reference
/// store: request i produced reference record i) of the requests routed
/// to each shard of a `num_shards`-way split, in submission order. A
/// shard's durable batch prefix of n records is exactly its first n.
std::vector<std::vector<uint64_t>> ShardRequestIndices(
    const IngestWorkloadBuilder& builder, size_t num_shards);

/// A quiesced store holding exactly the first `n` records routed to
/// shard `shard` — what that shard holds after replaying that batch
/// prefix alone.
Result<provenance::ProvenanceStore> ShardPrefixStore(
    const IngestWorkloadBuilder& builder, size_t num_shards, size_t shard,
    uint64_t n);

/// Asserts that `snapshot` is an *exact durable batch prefix* of the
/// builder's request stream: for every shard, the cut's record count
/// lies on a group-commit boundary (a multiple of `max_batch_records`,
/// or the shard's whole subsequence), its chains are byte-identical to
/// replaying exactly that prefix of the shard's requests, the
/// verification report over the cut is byte-identical to the report a
/// quiesced store stopped at the same per-shard prefixes would produce
/// (cross-shard aggregate-input resolution included), and extraction and
/// every query helper answer over the cut's objects exactly as over that
/// quiesced store (CheckSameReads). Requires the
/// pipeline to be configured so only the record-count threshold can
/// fire (huge max_batch_bytes, no interval flush).
Status CheckSnapshotIsBatchPrefix(const provenance::StoreSnapshot& snapshot,
                                  const IngestWorkloadBuilder& builder,
                                  size_t max_batch_records);

/// The concurrent-auditor differential proper: replays the builder's
/// requests through a fresh pipeline at `root` on a ThreadPool writer
/// task while the calling thread continuously opens snapshots and runs
/// CheckSnapshotIsBatchPrefix on each. After the writer drains, the
/// final cut must equal the full workload. Fails on the first cut that
/// is not an exact durable batch prefix. Callers log their workload
/// seed so failures replay.
Result<ConcurrentAuditStats> RunConcurrentAuditDifferential(
    storage::Env* env, const std::string& root,
    const IngestWorkloadBuilder& builder, provenance::IngestOptions options);

}  // namespace provdb::testing

#endif  // PROVDB_TESTS_TESTING_DIFFERENTIAL_H_
