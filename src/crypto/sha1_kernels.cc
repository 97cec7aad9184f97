#include "crypto/sha1_kernels.h"

#include <utility>

#include "observability/metrics.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PROVDB_SHA1_HAVE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define PROVDB_SHA1_HAVE_SHA_NI 0
#endif

namespace provdb::crypto {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t LoadBigEndian32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

// The FIPS 180-1 compression function, one 64-byte block. This is the
// reference every other kernel is tested against.
void ProcessBlock(uint32_t* h, const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = LoadBigEndian32(block + 4 * i);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    uint32_t temp = Rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl(b, 30);
    b = a;
    a = temp;
  }

  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

void Sha1BlocksPortable(uint32_t* state, const uint8_t* blocks,
                        size_t count) {
  for (size_t i = 0; i < count; ++i) {
    ProcessBlock(state, blocks + i * Sha1Hasher::kBlockSize);
  }
}

#if PROVDB_SHA1_HAVE_SHA_NI

#define PROVDB_SHA_NI_TARGET __attribute__((target("sha,ssse3,sse4.1")))

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

// One group of four rounds (4g .. 4g+3) of the SHA-NI compression.
// The message words of group g live in m[g % 4], top lane first. Group
// g+1's words are W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), built
// over three groups: SHA1MSG1 folds groups g-1 and g in group g, group
// g+1 XORs in its own words, and SHA1MSG2 finishes in group g+2. `prev`
// holds the ABCD that entered the previous group, from which SHA1NEXTE
// derives this group's E (for group 0 it holds the initial E).
template <int kGroup>
PROVDB_SHA_NI_TARGET __attribute__((always_inline)) inline void ShaNiGroup(
    __m128i& abcd, __m128i& prev, __m128i (&m)[4]) {
  constexpr int kCur = kGroup % 4;
  const __m128i e = kGroup == 0 ? _mm_add_epi32(prev, m[0])
                                : _mm_sha1nexte_epu32(prev, m[kCur]);
  prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, kGroup / 5);
  if constexpr (kGroup >= 3 && kGroup <= 18) {
    m[(kGroup + 1) % 4] = _mm_sha1msg2_epu32(m[(kGroup + 1) % 4], m[kCur]);
  }
  if constexpr (kGroup >= 2 && kGroup <= 17) {
    m[(kGroup + 2) % 4] = _mm_xor_si128(m[(kGroup + 2) % 4], m[kCur]);
  }
  if constexpr (kGroup >= 1 && kGroup <= 16) {
    m[(kGroup + 3) % 4] = _mm_sha1msg1_epu32(m[(kGroup + 3) % 4], m[kCur]);
  }
}

template <int... kGroups>
PROVDB_SHA_NI_TARGET __attribute__((always_inline)) inline void ShaNiRounds(
    std::integer_sequence<int, kGroups...>, __m128i& abcd, __m128i& prev,
    __m128i (&m)[4]) {
  (ShaNiGroup<kGroups>(abcd, prev, m), ...);
}

PROVDB_SHA_NI_TARGET void Sha1BlocksShaNi(uint32_t* state,
                                          const uint8_t* blocks,
                                          size_t count) {
  // Reverses all 16 bytes: big-endian words, W[0] in the top lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (size_t i = 0; i < count; ++i, blocks += Sha1Hasher::kBlockSize) {
    const __m128i abcd_in = abcd;
    __m128i m[4];
    for (int w = 0; w < 4; ++w) {
      m[w] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * w)),
          byte_swap);
    }
    __m128i prev = e;
    ShaNiRounds(std::make_integer_sequence<int, 20>{}, abcd, prev, m);
    e = _mm_sha1nexte_epu32(prev, e);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e, 3));
}

#endif  // PROVDB_SHA1_HAVE_SHA_NI

void PublishKernelGauge(Sha1Kernel kernel) {
  observability::GlobalMetrics()
      .gauge("crypto.hash.sha1_kernel")
      ->Set(static_cast<int64_t>(kernel));
}

}  // namespace

bool Sha1KernelSupported(Sha1Kernel kernel) {
  switch (kernel) {
    case Sha1Kernel::kPortable:
      return true;
    case Sha1Kernel::kShaNi: {
#if PROVDB_SHA1_HAVE_SHA_NI
      static const bool supported = CpuHasShaNi();
      return supported;
#else
      return false;
#endif
    }
  }
  return false;
}

Sha1Kernel SelectedSha1Kernel() {
  static const Sha1Kernel selected = [] {
    const Sha1Kernel kernel = Sha1KernelSupported(Sha1Kernel::kShaNi)
                                  ? Sha1Kernel::kShaNi
                                  : Sha1Kernel::kPortable;
    PublishKernelGauge(kernel);
    return kernel;
  }();
  return selected;
}

Sha1Hasher::BlockKernel Sha1BlockKernel(Sha1Kernel kernel) {
#if PROVDB_SHA1_HAVE_SHA_NI
  if (kernel == Sha1Kernel::kShaNi) return &Sha1BlocksShaNi;
#endif
  (void)kernel;
  return &Sha1BlocksPortable;
}

}  // namespace provdb::crypto
