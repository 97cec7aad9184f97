#ifndef PROVDB_CRYPTO_SHA1_H_
#define PROVDB_CRYPTO_SHA1_H_

#include <cstddef>
#include <cstdint>

#include "crypto/hash.h"

namespace provdb::crypto {

/// SHA-1 (FIPS PUB 180-1). 20-byte digests. This is the algorithm the
/// paper's evaluation uses ("SHA", java.security.MessageDigest, §5.1).
///
/// Note: SHA-1 collisions are practical today; the library defaults match
/// the paper for reproduction, and SHA-256 is a drop-in replacement via
/// HashAlgorithm::kSha256 everywhere a hash algorithm is configurable.
class Sha1Hasher final : public Hasher {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  /// A compression kernel: folds `count` consecutive 64-byte blocks into
  /// `state` (h0..h4). See crypto/sha1_kernels.h.
  using BlockKernel = void (*)(uint32_t* state, const uint8_t* blocks,
                               size_t count);

  /// Uses the process-wide kernel, chosen once from CPUID.
  Sha1Hasher();
  /// Pins `kernel`; the kernel tests drive each one through the same
  /// buffering.
  explicit Sha1Hasher(BlockKernel kernel) : kernel_(kernel) { Reset(); }

  void Reset() override;
  void Update(ByteView data) override;
  Digest Finish() override;

  size_t digest_size() const override { return kDigestSize; }
  HashAlgorithm algorithm() const override { return HashAlgorithm::kSha1; }

 private:
  BlockKernel kernel_;
  uint32_t h_[5];
  uint64_t total_bytes_;
  uint8_t buffer_[kBlockSize];
  size_t buffered_;
};

}  // namespace provdb::crypto

#endif  // PROVDB_CRYPTO_SHA1_H_
