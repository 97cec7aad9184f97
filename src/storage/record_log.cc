#include "storage/record_log.h"

#include <string>

namespace provdb::storage {

Result<uint64_t> RecordLog::Append(ByteView payload) {
  if (payload.size() > 0xFFFFFFFFu) {
    return Status::InvalidArgument(
        "record payload of " + std::to_string(payload.size()) +
        " bytes exceeds the 32-bit frame length limit");
  }
  uint64_t index = offsets_.size();
  offsets_.push_back(arena_.size());
  lengths_.push_back(static_cast<uint32_t>(payload.size()));
  AppendBytes(&arena_, payload);
  return index;
}

Result<ByteView> RecordLog::Get(uint64_t index) const {
  if (index >= offsets_.size()) {
    return Status::OutOfRange("record index " + std::to_string(index) +
                              " out of range");
  }
  return ByteView(arena_.data() + offsets_[index], lengths_[index]);
}

Status RecordLog::ForEach(
    const std::function<Status(uint64_t, ByteView)>& fn) const {
  for (uint64_t i = 0; i < offsets_.size(); ++i) {
    PROVDB_RETURN_IF_ERROR(
        fn(i, ByteView(arena_.data() + offsets_[i], lengths_[i])));
  }
  return Status::OK();
}

}  // namespace provdb::storage
