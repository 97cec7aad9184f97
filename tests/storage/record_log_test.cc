#include "storage/record_log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace provdb::storage {
namespace {

Bytes Payload(std::string_view s) { return ByteView(s).ToBytes(); }

TEST(RecordLogTest, AppendAndGet) {
  RecordLog log;
  EXPECT_EQ(log.record_count(), 0u);
  uint64_t i0 = *log.Append(Payload("first"));
  uint64_t i1 = *log.Append(Payload("second"));
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(log.record_count(), 2u);
  EXPECT_EQ(log.Get(0)->ToString(), "first");
  EXPECT_EQ(log.Get(1)->ToString(), "second");
  EXPECT_FALSE(log.Get(2).ok());
}

TEST(RecordLogTest, EmptyPayloadAllowed) {
  RecordLog log;
  ASSERT_TRUE(log.Append(ByteView()).ok());
  EXPECT_EQ(log.record_count(), 1u);
  EXPECT_TRUE(log.Get(0)->empty());
}

// Regression (silent frame-length truncation): payloads wider than the
// 32-bit frame length must be rejected, not cast down to a corrupt
// length. The view is never dereferenced, so a fake huge view is safe.
TEST(RecordLogTest, OversizedPayloadRejectedWithStatus) {
  RecordLog log;
  uint8_t byte = 0;
  ByteView huge(&byte, static_cast<size_t>(0xFFFFFFFFu) + 1);
  auto result = log.Append(huge);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.record_count(), 0u);
}

TEST(RecordLogTest, ByteAccounting) {
  RecordLog log;
  ASSERT_TRUE(log.Append(Payload("abc")).ok());
  ASSERT_TRUE(log.Append(Payload("defgh")).ok());
  EXPECT_EQ(log.total_payload_bytes(), 8u);
}

TEST(RecordLogTest, ForEachVisitsInOrder) {
  RecordLog log;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.Append(Payload("p" + std::to_string(i))).ok());
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(log.ForEach([&](uint64_t index, ByteView payload) {
    EXPECT_EQ(index, seen.size());
    seen.push_back(payload.ToString());
    return Status::OK();
  }).ok());
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen[7], "p7");
}

TEST(RecordLogTest, ForEachPropagatesError) {
  RecordLog log;
  ASSERT_TRUE(log.Append(Payload("a")).ok());
  ASSERT_TRUE(log.Append(Payload("b")).ok());
  int visits = 0;
  Status s = log.ForEach([&](uint64_t, ByteView) {
    ++visits;
    return Status::Internal("boom");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(visits, 1);
}

}  // namespace
}  // namespace provdb::storage
