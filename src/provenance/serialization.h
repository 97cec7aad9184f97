#ifndef PROVDB_PROVENANCE_SERIALIZATION_H_
#define PROVDB_PROVENANCE_SERIALIZATION_H_

#include "common/bytes.h"
#include "common/result.h"
#include "provenance/record.h"

namespace provdb::provenance {

/// Binary wire encoding of a provenance record. Used for persistence (WAL
/// record entries and sealed checkpoints) and for shipping recipient
/// bundles. The format is versioned with a leading tag byte so it can
/// evolve.
Bytes EncodeRecord(const ProvenanceRecord& record);

/// Parses a record written by EncodeRecord.
Result<ProvenanceRecord> DecodeRecord(ByteView data);

/// WAL entry framing. A ProvenanceStore-attached WAL carries more than
/// bare records: prunes must reach the log too, or crash recovery would
/// replay the appends and resurrect pruned history. Every WAL payload is
/// therefore one entry — a leading type byte, then a type-specific body.
enum class WalEntryType : uint8_t {
  kRecord = 1,  // body: EncodeRecord bytes
  kPrune = 2,   // body: varint object id
};

/// Encodes a record append: [kRecord] || EncodeRecord(record).
Bytes EncodeWalRecordEntry(const ProvenanceRecord& record);

/// Encodes a prune marker: [kPrune] || varint(id).
Bytes EncodeWalPruneEntry(storage::ObjectId id);

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_SERIALIZATION_H_
