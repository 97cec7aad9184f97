#ifndef PROVDB_STORAGE_RECORD_LOG_H_
#define PROVDB_STORAGE_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace provdb::storage {

/// In-memory, append-only sequence of opaque payloads stored contiguously
/// in one arena. WalReader collects a recovered WAL into one (see
/// WalReader::log()), so replaying thousands of records costs a few
/// arena growths instead of an allocation per record. Nothing persists a
/// RecordLog: durability is the WAL's segments plus sealed checkpoints
/// (DESIGN.md §8, §13).
class RecordLog {
 public:
  RecordLog() = default;

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;
  RecordLog(RecordLog&&) = default;
  RecordLog& operator=(RecordLog&&) = default;

  /// Appends a payload; returns its stable record index (0-based).
  /// Payloads larger than the 32-bit length limit (the WAL frame's) are
  /// rejected with kInvalidArgument rather than truncated.
  Result<uint64_t> Append(ByteView payload);

  /// Number of records in the log.
  uint64_t record_count() const { return offsets_.size(); }

  /// Payload of record `index`. The view is invalidated by Append.
  Result<ByteView> Get(uint64_t index) const;

  /// Sum of payload sizes.
  uint64_t total_payload_bytes() const { return arena_.size(); }

  /// Calls `fn(index, payload)` for every record, in append order.
  Status ForEach(
      const std::function<Status(uint64_t, ByteView)>& fn) const;

 private:
  Bytes arena_;
  std::vector<uint64_t> offsets_;  // start of each payload in arena_
  std::vector<uint32_t> lengths_;
};

}  // namespace provdb::storage

#endif  // PROVDB_STORAGE_RECORD_LOG_H_
