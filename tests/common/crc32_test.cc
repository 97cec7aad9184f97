#include "common/crc32.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace provdb {
namespace {

// The classic one-table, one-byte-at-a-time CRC-32 loop, kept here as the
// reference the slice-by-8 implementation must match exactly.
uint32_t BytewiseCrc32(uint32_t crc, ByteView data) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < data.size(); ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(Crc32(ByteView(std::string_view("123456789"))), 0xCBF43926u);
  EXPECT_EQ(Crc32(ByteView(std::string_view("a"))), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(ByteView(std::string_view("abc"))), 0x352441C2u);
  EXPECT_EQ(Crc32(ByteView()), 0x00000000u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  std::string full = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= full.size(); split += 7) {
    uint32_t part = Crc32(ByteView(std::string_view(full).substr(0, split)));
    uint32_t whole =
        Crc32Extend(part, ByteView(std::string_view(full).substr(split)));
    EXPECT_EQ(whole, Crc32(ByteView(std::string_view(full)))) << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  Bytes data(64, 0x5A);
  uint32_t original = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 9) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes mutated = data;
      mutated[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32(mutated), original) << byte << ":" << bit;
    }
  }
}

// Slice-by-8 against the bytewise reference at every length 0..1 KiB and
// every start offset 0..7, so each tail length meets each alignment.
TEST(Crc32Test, SliceBy8MatchesBytewiseReference) {
  Rng rng(0xC3C);
  Bytes storage;
  rng.NextBytes(&storage, 1024 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const ByteView data = ByteView(storage).subview(offset, length);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(0, data))
          << "offset " << offset << " length " << length;
    }
  }
}

// Crc32Extend chained across every two-way split, and across a three-way
// split, equals the one-shot CRC and the reference.
TEST(Crc32Test, ExtendChainsAcrossSplits) {
  Rng rng(0xC3D);
  Bytes data;
  rng.NextBytes(&data, 300);
  const ByteView all(data);
  const uint32_t want = BytewiseCrc32(0, all);
  ASSERT_EQ(Crc32(all), want);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32(all.subview(0, split));
    ASSERT_EQ(Crc32Extend(head, all.subview(split)), want) << split;
    const size_t mid = split + (data.size() - split) / 3;
    const uint32_t middle =
        Crc32Extend(head, all.subview(split, mid - split));
    ASSERT_EQ(Crc32Extend(middle, all.subview(mid)), want) << split;
  }
  // A nonzero seed CRC flows through unchanged: same as the reference.
  EXPECT_EQ(Crc32Extend(0xDEADBEEFu, all), BytewiseCrc32(0xDEADBEEFu, all));
}

}  // namespace
}  // namespace provdb
