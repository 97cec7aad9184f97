#ifndef PROVDB_PROVENANCE_QUERY_H_
#define PROVDB_PROVENANCE_QUERY_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/pki.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"

namespace provdb::provenance {

/// Answers the questions data recipients actually ask of provenance —
/// "who touched this?", "what did it come from?", "what did participant p
/// do?" — over the verified record DAG. Queries operate on the same
/// ExtractProvenance closure the verifier checks, so query results are
/// covered by the integrity guarantees.
struct LineageSummary {
  /// Every participant that signed a record in the object's history.
  std::set<crypto::ParticipantId> participants;
  /// Objects whose state transitively contributed via aggregations
  /// (excluding the subject itself).
  std::set<storage::ObjectId> contributing_objects;
  uint64_t record_count = 0;
  uint64_t insert_count = 0;
  uint64_t update_count = 0;
  uint64_t aggregate_count = 0;
  uint64_t inherited_count = 0;
  SeqId max_seq_id = 0;

  std::string ToString() const;
};

// Every helper reads a StoreSnapshot: a pinned, immutable batch-boundary
// cut of a live sharded store (IngestPipeline::OpenSnapshot), which never
// races the writer, or the one-view snapshot of a quiescent store
// (ProvenanceStore::QuiescentSnapshot) — see DESIGN.md §16.

/// Summarizes the full (transitive) history of `subject`.
Result<LineageSummary> SummarizeLineage(const StoreSnapshot& snapshot,
                                        storage::ObjectId subject);

/// The records signed by `participant`, in ascending (object id, seqID)
/// order. Pointers are valid while the snapshot (and, for a quiescent
/// snapshot, the store) is held.
std::vector<const ProvenanceRecord*> RecordsByParticipant(
    const StoreSnapshot& snapshot, crypto::ParticipantId participant);

/// True iff `participant` signed any record in `subject`'s transitive
/// history — e.g. "did PCP Pamela ever touch this submission?".
Result<bool> ParticipantTouched(const StoreSnapshot& snapshot,
                                storage::ObjectId subject,
                                crypto::ParticipantId participant);

/// The slice of `subject`'s own chain with from_seq <= seqID <= to_seq
/// (record copies, in seq order). Does not follow aggregation edges.
Result<std::vector<ProvenanceRecord>> HistorySlice(
    const StoreSnapshot& snapshot, storage::ObjectId subject, SeqId from_seq,
    SeqId to_seq);

/// The direct aggregation inputs of `subject` (empty when the subject was
/// not produced by an aggregation).
Result<std::vector<ObjectState>> DirectSources(const StoreSnapshot& snapshot,
                                               storage::ObjectId subject);

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_QUERY_H_
