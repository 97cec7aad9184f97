#include "crypto/sha1.h"

#include <cstring>

#include "crypto/sha1_kernels.h"

namespace provdb::crypto {

namespace {

inline void StoreBigEndian32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

}  // namespace

Sha1Hasher::Sha1Hasher() : Sha1Hasher(Sha1BlockKernel(SelectedSha1Kernel())) {}

void Sha1Hasher::Reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1Hasher::Update(ByteView data) {
  // Empty views carry data() == nullptr, which memcpy below must not
  // see even when take == 0.
  if (data.empty()) return;
  total_bytes_ += data.size();
  size_t pos = 0;
  if (buffered_ > 0) {
    size_t need = kBlockSize - buffered_;
    size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    pos += take;
    if (buffered_ == kBlockSize) {
      kernel_(h_, buffer_, 1);
      buffered_ = 0;
    }
  }
  // Every whole block left goes to the kernel in one call.
  const size_t blocks = (data.size() - pos) / kBlockSize;
  if (blocks > 0) {
    kernel_(h_, data.data() + pos, blocks);
    pos += blocks * kBlockSize;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Digest Sha1Hasher::Finish() {
  uint64_t bit_length = total_bytes_ * 8;
  uint8_t pad[kBlockSize * 2];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  // Pad to 56 mod 64 (leaving 8 bytes for the length).
  size_t rem = (buffered_ + 1) % kBlockSize;
  size_t zeros = (rem <= 56) ? (56 - rem) : (kBlockSize + 56 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_length >> (8 * i));
  }
  // Feed padding through the normal path without re-counting its length.
  uint64_t saved_total = total_bytes_;
  Update(ByteView(pad, pad_len));
  total_bytes_ = saved_total;

  Digest d;
  d.set_size(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    StoreBigEndian32(d.mutable_data() + 4 * i, h_[i]);
  }
  return d;
}

}  // namespace provdb::crypto
