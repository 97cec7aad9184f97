#include "common/crc32.h"

#include <array>

namespace provdb {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slice-by-8 tables. tables[0] is the classic bytewise table; tables[k][b]
// is the CRC contribution of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once.
constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

inline uint32_t LoadLittleEndian32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, ByteView data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLittleEndian32(p) ^ c;
    const uint32_t hi = LoadLittleEndian32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(ByteView data) { return Crc32Extend(0, data); }

}  // namespace provdb
