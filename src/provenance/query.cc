#include "provenance/query.h"

namespace provdb::provenance {

std::string LineageSummary::ToString() const {
  std::string out = "lineage: " + std::to_string(record_count) +
                    " records (" + std::to_string(insert_count) + " ins, " +
                    std::to_string(update_count) + " upd, " +
                    std::to_string(aggregate_count) + " agg; " +
                    std::to_string(inherited_count) + " inherited), " +
                    std::to_string(participants.size()) + " participant(s), " +
                    std::to_string(contributing_objects.size()) +
                    " contributing object(s), max seq " +
                    std::to_string(max_seq_id);
  return out;
}

namespace {

LineageSummary SummarizeRecords(const std::vector<ProvenanceRecord>& records,
                                storage::ObjectId subject) {
  LineageSummary summary;
  for (const ProvenanceRecord& rec : records) {
    ++summary.record_count;
    summary.participants.insert(rec.participant);
    if (rec.output.object_id != subject) {
      summary.contributing_objects.insert(rec.output.object_id);
    }
    switch (rec.op) {
      case OperationType::kInsert:
        ++summary.insert_count;
        break;
      case OperationType::kUpdate:
        ++summary.update_count;
        break;
      case OperationType::kAggregate:
        ++summary.aggregate_count;
        break;
    }
    if (rec.inherited) {
      ++summary.inherited_count;
    }
    if (rec.seq_id > summary.max_seq_id) {
      summary.max_seq_id = rec.seq_id;
    }
  }
  return summary;
}

}  // namespace

Result<LineageSummary> SummarizeLineage(const StoreSnapshot& snapshot,
                                        storage::ObjectId subject) {
  PROVDB_ASSIGN_OR_RETURN(std::vector<ProvenanceRecord> records,
                          snapshot.ExtractProvenance(subject));
  return SummarizeRecords(records, subject);
}

std::vector<const ProvenanceRecord*> RecordsByParticipant(
    const StoreSnapshot& snapshot, crypto::ParticipantId participant) {
  std::vector<const ProvenanceRecord*> out;
  // AllChains iterates objects in ascending id order and chains in seqID
  // order, giving the canonical cross-shard record order.
  for (const auto& [object, chain] : snapshot.AllChains()) {
    (void)object;
    for (const ProvenanceRecord* rec : chain) {
      if (rec->participant == participant) {
        out.push_back(rec);
      }
    }
  }
  return out;
}

Result<bool> ParticipantTouched(const StoreSnapshot& snapshot,
                                storage::ObjectId subject,
                                crypto::ParticipantId participant) {
  PROVDB_ASSIGN_OR_RETURN(std::vector<ProvenanceRecord> records,
                          snapshot.ExtractProvenance(subject));
  for (const ProvenanceRecord& rec : records) {
    if (rec.participant == participant) {
      return true;
    }
  }
  return false;
}

Result<std::vector<ProvenanceRecord>> HistorySlice(
    const StoreSnapshot& snapshot, storage::ObjectId subject, SeqId from_seq,
    SeqId to_seq) {
  if (from_seq > to_seq) {
    return Status::InvalidArgument("from_seq must be <= to_seq");
  }
  std::vector<const ProvenanceRecord*> chain = snapshot.ChainRecords(subject);
  if (chain.empty()) {
    return Status::NotFound("no provenance records for object " +
                            std::to_string(subject));
  }
  std::vector<ProvenanceRecord> out;
  for (const ProvenanceRecord* rec : chain) {
    if (rec->seq_id >= from_seq && rec->seq_id <= to_seq) {
      out.push_back(*rec);
    }
  }
  return out;
}

Result<std::vector<ObjectState>> DirectSources(const StoreSnapshot& snapshot,
                                               storage::ObjectId subject) {
  std::vector<const ProvenanceRecord*> chain = snapshot.ChainRecords(subject);
  if (chain.empty()) {
    return Status::NotFound("no provenance records for object " +
                            std::to_string(subject));
  }
  const ProvenanceRecord& first = *chain.front();
  if (first.op != OperationType::kAggregate) {
    return std::vector<ObjectState>{};
  }
  return first.inputs;
}

}  // namespace provdb::provenance
