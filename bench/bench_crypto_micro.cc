// Micro-benchmarks (google-benchmark) of the cryptographic primitives
// behind every checksum (§2.3/§5.1): hash throughput for the three
// algorithms, CRC-32 throughput (every WAL, checkpoint and wire frame),
// HMAC, RSA sign/verify at several key sizes, per-node tree
// hashing, and the end-to-end cost of producing one checksum.

#include <cstdio>
#include <cstring>

#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "common/crc32.h"
#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/bignum_kernels.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/signer.h"
#include "provenance/checksum.h"
#include "provenance/subtree_hasher.h"
#include "storage/value.h"

namespace provdb::bench {
namespace {

using crypto::HashAlgorithm;

Bytes MakePayload(size_t size) {
  Rng rng(size);
  Bytes out;
  rng.NextBytes(&out, size);
  return out;
}

void BM_Hash(benchmark::State& state, HashAlgorithm alg) {
  Bytes payload = MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HashBytes(alg, payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Hash, sha1, HashAlgorithm::kSha1)
    ->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK_CAPTURE(BM_Hash, sha256, HashAlgorithm::kSha256)
    ->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK_CAPTURE(BM_Hash, md5, HashAlgorithm::kMd5)
    ->Arg(64)->Arg(1024)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  Bytes payload = MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_Hmac(benchmark::State& state) {
  Bytes key = MakePayload(20);
  Bytes payload = MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::HmacCompute(HashAlgorithm::kSha1, key, payload));
  }
}
BENCHMARK(BM_Hmac)->Arg(64)->Arg(1024);

const crypto::RsaKeyPair& KeyPair(size_t bits) {
  static std::map<size_t, crypto::RsaKeyPair>* pairs =
      new std::map<size_t, crypto::RsaKeyPair>();
  auto it = pairs->find(bits);
  if (it == pairs->end()) {
    Rng rng(bits);
    it = pairs->emplace(bits, crypto::GenerateRsaKeyPair(bits, &rng).value())
             .first;
  }
  return it->second;
}

void BM_RsaSign(benchmark::State& state) {
  const auto& pair = KeyPair(static_cast<size_t>(state.range(0)));
  auto signer = crypto::RsaSigner::Create(pair.private_key).value();
  Bytes payload = MakePayload(168);  // typical update-checksum payload
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.Sign(payload));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  const auto& pair = KeyPair(static_cast<size_t>(state.range(0)));
  auto signer = crypto::RsaSigner::Create(pair.private_key).value();
  Bytes payload = MakePayload(168);
  Bytes signature = signer.Sign(payload).value();
  crypto::RsaSignatureVerifier verifier(pair.public_key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.Verify(payload, signature));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// Per-kernel ladder cost on a CRT-half-shaped problem: `bits`-bit odd
// modulus, `bits`-bit exponent — the shape RSA signing actually runs.
// Kernel A/B without touching the global selection (docs/CRYPTO.md).
void BM_ModExp(benchmark::State& state, crypto::ModExpKernel kernel) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Rng rng(bits);
  Bytes raw;
  rng.NextBytes(&raw, bits / 8);
  crypto::BigUInt m = crypto::BigUInt::FromBytesBigEndian(raw);
  if (!m.IsOdd()) m = crypto::BigUInt::Add(m, crypto::BigUInt(1));
  auto ctx = crypto::MontgomeryContext::Create(m).value();
  rng.NextBytes(&raw, bits / 8);
  crypto::BigUInt base = crypto::BigUInt::FromBytesBigEndian(raw);
  rng.NextBytes(&raw, bits / 8);
  crypto::BigUInt exp = crypto::BigUInt::FromBytesBigEndian(raw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModExpWithKernel(base, exp, kernel));
  }
}
BENCHMARK_CAPTURE(BM_ModExp, binary, crypto::ModExpKernel::kBinary)
    ->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ModExp, window4, crypto::ModExpKernel::kWindow4)
    ->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ModExp, window5, crypto::ModExpKernel::kWindow5)
    ->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

// Per-kernel full-width multiply at Karatsuba-relevant sizes (the sign
// path never calls this — keygen, verify padding, and DivMod do).
void BM_BigMul(benchmark::State& state, crypto::MulKernel kernel) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  Rng rng(bytes);
  Bytes raw;
  rng.NextBytes(&raw, bytes);
  crypto::BigUInt a = crypto::BigUInt::FromBytesBigEndian(raw);
  rng.NextBytes(&raw, bytes);
  crypto::BigUInt b = crypto::BigUInt::FromBytesBigEndian(raw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigUInt::MulWithKernel(a, b, kernel));
  }
}
BENCHMARK_CAPTURE(BM_BigMul, schoolbook, crypto::MulKernel::kSchoolbook)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_BigMul, karatsuba, crypto::MulKernel::kKaratsuba)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

void BM_HmacSignerAblation(benchmark::State& state) {
  // The symmetric alternative: ~3 orders of magnitude faster than RSA but
  // forfeits non-repudiation (R8).
  crypto::HmacSigner signer(MakePayload(32));
  Bytes payload = MakePayload(168);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.Sign(payload));
  }
}
BENCHMARK(BM_HmacSignerAblation);

void BM_NodeHash(benchmark::State& state) {
  // One tree-node hash: the unit of Figures 6/7 and the streaming bench.
  storage::Value value = storage::Value::Int(123456);
  std::vector<crypto::Digest> children(
      static_cast<size_t>(state.range(0)),
      crypto::HashBytes(HashAlgorithm::kSha1, MakePayload(8)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(provenance::HashTreeNode(
        HashAlgorithm::kSha1, 42, value, children));
  }
}
BENCHMARK(BM_NodeHash)->Arg(0)->Arg(8)->Arg(64);

void BM_ChecksumEndToEnd(benchmark::State& state) {
  // Full cost of one update checksum: payload build + RSA-1024 signature.
  const auto& pair = KeyPair(1024);
  auto signer = crypto::RsaSigner::Create(pair.private_key).value();
  provenance::ChecksumEngine engine;
  crypto::Digest in = crypto::HashBytes(HashAlgorithm::kSha1, MakePayload(8));
  crypto::Digest out =
      crypto::HashBytes(HashAlgorithm::kSha1, MakePayload(9));
  Bytes prev = MakePayload(128);
  for (auto _ : state) {
    Bytes payload = engine.BuildUpdatePayload(in, out, prev);
    benchmark::DoNotOptimize(engine.SignPayload(signer, payload));
  }
}
BENCHMARK(BM_ChecksumEndToEnd)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace provdb::bench

// BENCHMARK_MAIN() expanded so the run can end with the standard
// provdb metrics footer (the checksum/hashing micro-benches record into
// the global registry like everything else), and so --kernel= can pin
// the bignum kernel set for the whole run (same spec grammar as
// PROVDB_BIGNUM_KERNEL; see docs/CRYPTO.md and docs/BENCHMARKS.md).
int main(int argc, char** argv) {
  provdb::observability::InitTraceFromEnv();
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--kernel=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      const char* spec = argv[i] + std::strlen(kFlag);
      auto parsed = provdb::crypto::ParseBigNumKernelSpec(spec);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --kernel= spec \"%s\": %s\n", spec,
                     parsed.status().message().c_str());
        return 1;
      }
      provdb::crypto::ForceBigNumKernels(parsed.value());
      continue;  // consumed: don't hand it to google-benchmark
    }
    argv[out++] = argv[i];
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  provdb::bench::EmitMetricsSnapshot();
  return 0;
}
