// Hash-function tests against the published FIPS 180 / RFC 1321 vectors,
// plus streaming-equivalence properties around block boundaries, and the
// SHA-1 compression kernels each checked on their own and against the
// portable reference.

#include "crypto/hash.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "crypto/sha1_kernels.h"
#include "crypto/sha256.h"
#include "observability/metrics.h"

namespace provdb::crypto {
namespace {

std::string HashHex(HashAlgorithm alg, std::string_view message) {
  return HashBytes(alg, ByteView(message)).ToHex();
}

TEST(Sha1Test, FipsVectors) {
  EXPECT_EQ(HashHex(HashAlgorithm::kSha1, ""),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(HashHex(HashAlgorithm::kSha1, "abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(HashHex(HashAlgorithm::kSha1,
                    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha1,
              "The quick brown fox jumps over the lazy dog"),
      "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, MillionAs) {
  Sha1Hasher hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(ByteView(chunk));
  }
  EXPECT_EQ(hasher.Finish().ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha256Test, FipsVectors) {
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha256, ""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha256, "abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      HashHex(HashAlgorithm::kSha256,
              "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256Hasher hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(ByteView(chunk));
  }
  EXPECT_EQ(
      hasher.Finish().ToHex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, ""),
            "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "a"),
            "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "abc"),
            "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5, "abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5,
                    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                    "0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(HashHex(HashAlgorithm::kMd5,
                    "1234567890123456789012345678901234567890123456789012345"
                    "6789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(HashTest, AlgorithmMetadata) {
  EXPECT_EQ(HashAlgorithmName(HashAlgorithm::kSha1), "SHA-1");
  EXPECT_EQ(HashAlgorithmName(HashAlgorithm::kSha256), "SHA-256");
  EXPECT_EQ(HashAlgorithmName(HashAlgorithm::kMd5), "MD5");
  EXPECT_EQ(HashDigestSize(HashAlgorithm::kSha1), 20u);
  EXPECT_EQ(HashDigestSize(HashAlgorithm::kSha256), 32u);
  EXPECT_EQ(HashDigestSize(HashAlgorithm::kMd5), 16u);
}

TEST(HashTest, FactoryMatchesOneShot) {
  std::string message = "factory test message";
  for (HashAlgorithm alg : {HashAlgorithm::kSha1, HashAlgorithm::kSha256,
                            HashAlgorithm::kMd5}) {
    auto hasher = CreateHasher(alg);
    ASSERT_NE(hasher, nullptr);
    EXPECT_EQ(hasher->digest_size(), HashDigestSize(alg));
    EXPECT_EQ(hasher->algorithm(), alg);
    EXPECT_EQ(hasher->Hash(ByteView(message)).ToHex(),
              HashBytes(alg, ByteView(message)).ToHex());
  }
}

// Streaming property: one-shot == byte-at-a-time == random chunking, for
// message lengths straddling the 64-byte block boundary and the 56-byte
// padding boundary.
class HashStreamingTest
    : public ::testing::TestWithParam<std::tuple<HashAlgorithm, size_t>> {};

TEST_P(HashStreamingTest, ChunkedMatchesOneShot) {
  auto [alg, length] = GetParam();
  std::string message;
  for (size_t i = 0; i < length; ++i) {
    message.push_back(static_cast<char>('A' + (i % 26)));
  }
  Digest one_shot = HashBytes(alg, ByteView(message));

  // Byte-at-a-time.
  auto hasher = CreateHasher(alg);
  for (char c : message) {
    hasher->Update(ByteView(&reinterpret_cast<const uint8_t&>(c), 1));
  }
  EXPECT_EQ(hasher->Finish().ToHex(), one_shot.ToHex());

  // Uneven chunks (7 bytes).
  hasher->Reset();
  for (size_t pos = 0; pos < message.size(); pos += 7) {
    hasher->Update(ByteView(std::string_view(message).substr(pos, 7)));
  }
  EXPECT_EQ(hasher->Finish().ToHex(), one_shot.ToHex());
}

INSTANTIATE_TEST_SUITE_P(
    BoundaryLengths, HashStreamingTest,
    ::testing::Combine(
        ::testing::Values(HashAlgorithm::kSha1, HashAlgorithm::kSha256,
                          HashAlgorithm::kMd5),
        ::testing::Values(0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u,
                          128u, 1000u)));

TEST(HashTest, ResetClearsState) {
  Sha1Hasher hasher;
  hasher.Update(ByteView(std::string_view("garbage")));
  hasher.Reset();
  hasher.Update(ByteView(std::string_view("abc")));
  EXPECT_EQ(hasher.Finish().ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(HashTest, ReuseAfterFinish) {
  Sha256Hasher hasher;
  hasher.Update(ByteView(std::string_view("abc")));
  Digest first = hasher.Finish();
  hasher.Reset();
  hasher.Update(ByteView(std::string_view("abc")));
  EXPECT_EQ(hasher.Finish().ToHex(), first.ToHex());
}

TEST(HashTest, DistinctMessagesDistinctDigests) {
  // Not a collision test — a sanity check that close inputs diverge.
  for (HashAlgorithm alg : {HashAlgorithm::kSha1, HashAlgorithm::kSha256,
                            HashAlgorithm::kMd5}) {
    EXPECT_NE(HashHex(alg, "message1"), HashHex(alg, "message2"));
    EXPECT_NE(HashHex(alg, ""), HashHex(alg, std::string(1, '\0')));
  }
}

// ---------------------------------------------------------------------
// SHA-1 compression kernels

// Runs the FIPS vectors through one pinned kernel. Kernels this CPU
// cannot run are skipped, never silently swapped for another.
class Sha1KernelTest : public ::testing::TestWithParam<Sha1Kernel> {
 protected:
  void SetUp() override {
    if (!Sha1KernelSupported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the kernel";
    }
  }

  Sha1Hasher MakeHasher() const {
    return Sha1Hasher(Sha1BlockKernel(GetParam()));
  }

  std::string Sha1Hex(std::string_view message) const {
    Sha1Hasher hasher = MakeHasher();
    hasher.Update(ByteView(message));
    return hasher.Finish().ToHex();
  }
};

TEST_P(Sha1KernelTest, FipsVectors) {
  EXPECT_EQ(Sha1Hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1Hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(
      Sha1Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(Sha1Hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST_P(Sha1KernelTest, MillionAs) {
  Sha1Hasher hasher = MakeHasher();
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(ByteView(chunk));
  }
  EXPECT_EQ(hasher.Finish().ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  // The same million bytes in one Update: one kernel call over every
  // whole block.
  hasher.Reset();
  std::string million(1000000, 'a');
  hasher.Update(ByteView(million));
  EXPECT_EQ(hasher.Finish().ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha1KernelTest,
    ::testing::Values(Sha1Kernel::kPortable, Sha1Kernel::kShaNi),
    [](const ::testing::TestParamInfo<Sha1Kernel>& info) {
      return info.param == Sha1Kernel::kPortable ? std::string("Portable")
                                                 : std::string("ShaNi");
    });

std::string KernelDigestHex(Sha1Kernel kernel, ByteView message,
                            size_t split) {
  Sha1Hasher hasher(Sha1BlockKernel(kernel));
  hasher.Update(message.subview(0, split));
  hasher.Update(message.subview(split));
  return hasher.Finish().ToHex();
}

// SHA-NI against the portable reference on random 0-4 KiB messages:
// whole, under every two-way chunk split (so every buffered prefix
// length meets every block-run length), and from unaligned starts.
TEST(Sha1KernelCrossCheckTest, ShaNiMatchesPortableOnRandomMessages) {
  if (!Sha1KernelSupported(Sha1Kernel::kShaNi)) {
    GTEST_SKIP() << "this CPU has no SHA-NI";
  }
  Rng rng(0x5A1);
  std::vector<size_t> lengths = {0, 1, 55, 56, 63, 64, 65, 127, 128, 4096};
  for (int i = 0; i < 24; ++i) {
    lengths.push_back(static_cast<size_t>(rng.NextBelow(4097)));
  }
  for (size_t length : lengths) {
    // Room for the message at every start offset 0..15.
    Bytes storage;
    rng.NextBytes(&storage, length + 16);
    const ByteView message = ByteView(storage).subview(0, length);
    const std::string want =
        KernelDigestHex(Sha1Kernel::kPortable, message, 0);
    for (size_t split = 0; split <= length; ++split) {
      ASSERT_EQ(KernelDigestHex(Sha1Kernel::kShaNi, message, split), want)
          << "length " << length << " split " << split;
    }
    for (size_t offset = 1; offset < 16; ++offset) {
      const ByteView shifted = ByteView(storage).subview(offset, length);
      ASSERT_EQ(KernelDigestHex(Sha1Kernel::kShaNi, shifted, length / 2),
                KernelDigestHex(Sha1Kernel::kPortable, shifted, 0))
          << "length " << length << " offset " << offset;
    }
  }
}

TEST(Sha1KernelSelectionTest, PicksTheFastestSupportedKernelAndPublishesIt) {
  const Sha1Kernel selected = SelectedSha1Kernel();
  EXPECT_TRUE(Sha1KernelSupported(selected));
  EXPECT_EQ(selected, Sha1KernelSupported(Sha1Kernel::kShaNi)
                          ? Sha1Kernel::kShaNi
                          : Sha1Kernel::kPortable);
  EXPECT_EQ(SelectedSha1Kernel(), selected) << "selection is fixed";
  EXPECT_EQ(observability::GlobalMetrics()
                .gauge("crypto.hash.sha1_kernel")
                ->value(),
            static_cast<int64_t>(selected));
}

}  // namespace
}  // namespace provdb::crypto
