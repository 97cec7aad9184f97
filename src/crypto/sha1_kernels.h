#ifndef PROVDB_CRYPTO_SHA1_KERNELS_H_
#define PROVDB_CRYPTO_SHA1_KERNELS_H_

#include <cstdint>

#include "crypto/sha1.h"

namespace provdb::crypto {

/// SHA-1 compression kernels (docs/CRYPTO.md, "Hash kernels"). Internal:
/// Sha1Hasher is the interface; this header exists so tests can drive
/// each kernel through the same buffering. Every kernel computes the
/// exact same function, so digests — and every signature and golden file
/// built on them — are identical whichever one runs.
enum class Sha1Kernel : int32_t {
  kPortable = 0,  // FIPS 180-1 reference loop, one block at a time
  kShaNi = 1,     // x86-64 SHA extensions (SHA1RNDS4 / SHA1MSG1/2)
};

/// Whether `kernel` can run on this CPU. kPortable always can; kShaNi
/// needs an x86-64 build and CPUID reporting SHA, SSSE3 and SSE4.1.
bool Sha1KernelSupported(Sha1Kernel kernel);

/// The process-wide kernel: the fastest supported one, chosen from CPUID
/// on first use and then fixed. There is no override — kernels differ in
/// speed only. First use publishes the `crypto.hash.sha1_kernel` gauge.
Sha1Kernel SelectedSha1Kernel();

/// The block function behind `kernel`, which must be supported on this
/// CPU.
Sha1Hasher::BlockKernel Sha1BlockKernel(Sha1Kernel kernel);

}  // namespace provdb::crypto

#endif  // PROVDB_CRYPTO_SHA1_KERNELS_H_
