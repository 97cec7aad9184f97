#ifndef PROVDB_PROVENANCE_VERIFIER_H_
#define PROVDB_PROVENANCE_VERIFIER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/pki.h"
#include "observability/metrics.h"
#include "provenance/bundle.h"
#include "provenance/checksum.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"

namespace provdb::provenance {

/// Classification of verification failures, each annotated with the §2.2
/// requirement whose violation it witnesses.
enum class IssueKind {
  /// The shipped data does not hash to the latest record's output — the
  /// object was modified without provenance (R4) or the provenance was
  /// re-attributed to different data (R5).
  kDataHashMismatch,
  /// The snapshot root is not the bundle subject (re-attribution, R5).
  kSubjectMismatch,
  /// The bundle has no records for the subject at all.
  kMissingRecords,
  /// An update's input state does not match the previous record's output —
  /// a record was removed (R2/R7), inserted (R3/R6), or its values
  /// modified (R1).
  kChainLinkBroken,
  /// seqIDs of a chain are not the required consecutive sequence.
  kSeqViolation,
  /// A record's checksum fails signature verification (R1, R8).
  kBadSignature,
  /// The signing participant has no CA-endorsed certificate (R8).
  kUnknownParticipant,
  /// A record is structurally invalid (e.g. update without input).
  kMalformedRecord,
  /// An aggregation input cannot be resolved to any record in the bundle,
  /// yet a previous checksum was signed for it.
  kAggregateInputUnresolved,
  /// The data snapshot itself is structurally corrupt.
  kSnapshotMalformed,
};

std::string_view IssueKindName(IssueKind kind);

/// One verification failure.
struct VerificationIssue {
  IssueKind kind;
  storage::ObjectId object = storage::kInvalidObjectId;
  SeqId seq_id = 0;
  std::string message;

  std::string ToString() const;
};

/// Outcome of verifying a recipient bundle.
struct VerificationReport {
  std::vector<VerificationIssue> issues;
  uint64_t records_checked = 0;
  uint64_t signatures_verified = 0;

  bool ok() const { return issues.empty(); }
  bool HasIssue(IssueKind kind) const;
  std::string ToString() const;
};

/// Core of check 2 (§3): given per-object record chains (each sorted by
/// seqID), recompute every checksum payload and verify every signature,
/// appending issues and counters to `report`. Shared by the recipient-side
/// ProvenanceVerifier and the in-place StoreAuditor.
///
/// Each registered participant whose records appear gets one signature
/// verifier (one Montgomery context) per call, built before any fan-out
/// and shared read-only by every chain.
///
/// Chains are per-object and self-contained (§3.2), so when `pool` is
/// non-null (and has more than one worker) each chain is verified as an
/// independent pool task. Per-chain results are merged back in ascending
/// object-id order — and issues within a chain stay in seqID order — so
/// the report is byte-identical to the sequential one.
void VerifyRecordChains(
    const crypto::ParticipantRegistry& registry, const ChecksumEngine& engine,
    const std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>&
        chains,
    VerificationReport* report, ThreadPool* pool = nullptr);

/// The data recipient's verification procedure (§3):
///   1. the data object matches the output of its most recent provenance
///      record, and
///   2. every stored checksum re-verifies from the record's input/output
///      states and the previous checksum(s) under the acting participant's
///      certified public key.
/// Together these detect every attack in the threat model (R1–R8), as
/// argued in §3.1.
class ProvenanceVerifier {
 public:
  /// `registry` resolves participant ids to CA-endorsed public keys and
  /// must outlive the verifier. With `parallelism.num_threads > 1` the
  /// verifier owns a ThreadPool and fans per-object chain verification out
  /// across it; the report is identical to the sequential one.
  ProvenanceVerifier(const crypto::ParticipantRegistry* registry,
                     crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1,
                     ParallelismConfig parallelism = {});

  /// Runs all checks over `bundle` and reports every issue found (the
  /// verifier does not stop at the first failure). [[nodiscard]]: an
  /// unread report is an undetected tamper.
  ///
  /// Bundles are value snapshots, so Verify itself never races ingest;
  /// but *building* a bundle from a live store requires quiescence — to
  /// verify a moving deployment, pin a StoreSnapshot and use VerifyStore
  /// (DESIGN.md §16).
  [[nodiscard]] VerificationReport Verify(const RecipientBundle& bundle) const;

  /// Check 2 over every chain in a pinned snapshot: recompute every
  /// checksum payload and verify every signature. Safe while ingest is
  /// live — the snapshot is an immutable batch-boundary cut, so this
  /// takes no store lock and blocks no writer. (Check 1 needs the
  /// back-end tree; that is StoreAuditor's job.)
  [[nodiscard]] VerificationReport VerifyStore(
      const StoreSnapshot& snapshot) const;

 private:
  const crypto::ParticipantRegistry* registry_;
  ChecksumEngine engine_;
  std::unique_ptr<ThreadPool> pool_;  // null when sequential

  // Whole-run observability (docs/OBSERVABILITY.md); per-chain counters
  // live inside VerifyRecordChains so the auditor shares them.
  observability::Counter* runs_;
  observability::Histogram* run_latency_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_VERIFIER_H_
