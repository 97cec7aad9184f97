// Signed checkpoints: seal/load round trip, tamper refusal (every bit
// flip is caught by a CRC or by the seal), wrong-key refusal, stale
// checkpoint GC, and the in-flight .tmp handling around crashes.

#include "provenance/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/varint.h"
#include "crypto/signer.h"
#include "testing/gated_env.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::Env;

crypto::Digest D(uint8_t fill) {
  return crypto::Digest::FromBytes(Bytes(20, fill));
}

ProvenanceRecord Rec(storage::ObjectId object, SeqId seq, OperationType op,
                     uint8_t fill) {
  ProvenanceRecord rec;
  rec.seq_id = seq;
  rec.participant = 1;
  rec.op = op;
  if (op != OperationType::kInsert) {
    rec.inputs.push_back(ObjectState{object, D(fill ^ 0x55)});
  }
  rec.output = ObjectState{object, D(fill)};
  rec.checksum = Bytes(128, fill);
  return rec;
}

const crypto::Signer& Sealer() {
  return TestPki::Instance().participant(0).signer();
}

crypto::RsaSignatureVerifier SealVerifier() {
  return crypto::RsaSignatureVerifier(
      TestPki::Instance().participant(0).public_key());
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/provdb_checkpoint_" + info->name();
    env_ = Env::Default();
    auto names = env_->ListDir(dir_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        ASSERT_TRUE(env_->RemoveFile(dir_ + "/" + name).ok());
      }
    }
    ASSERT_TRUE(env_->CreateDir(dir_).ok());
  }

  /// A store with two chains: object 7 (insert + update) and object 9
  /// (insert), three live records total.
  ProvenanceStore SmallStore() {
    ProvenanceStore store;
    EXPECT_TRUE(store.AddRecord(Rec(7, 0, OperationType::kInsert, 1)).ok());
    EXPECT_TRUE(store.AddRecord(Rec(7, 1, OperationType::kUpdate, 2)).ok());
    EXPECT_TRUE(store.AddRecord(Rec(9, 0, OperationType::kInsert, 3)).ok());
    return store;
  }

  Bytes ReadAll(const std::string& path) {
    auto content = env_->ReadFileToBytes(path);
    EXPECT_TRUE(content.ok());
    return std::move(content).value();
  }

  void WriteAll(const std::string& path, const Bytes& content) {
    auto file = env_->NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(content).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Env* env_ = nullptr;
  std::string dir_;
};

size_t ReadVarintAt(const Bytes& bytes, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    uint8_t c = bytes[*pos];
    ++*pos;
    value |= static_cast<uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
  }
  return static_cast<size_t>(value);
}

/// Run-length rendering of per-byte status codes ("6x20 8x131 ..."), so
/// a whole flip matrix compares as one short string.
std::string RunLengths(const std::vector<StatusCode>& codes) {
  std::string out;
  for (size_t i = 0; i < codes.size();) {
    size_t j = i;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    if (!out.empty()) out += ' ';
    out += std::to_string(static_cast<int>(codes[i])) + "x" +
           std::to_string(j - i);
    i = j;
  }
  return out;
}

/// Counts the reads a checkpoint load makes through the Env.
class ReadCountingEnv final : public provdb::testing::ForwardingEnv {
 public:
  using ForwardingEnv::ForwardingEnv;

  Result<Bytes> ReadFileToBytes(const std::string& path) override {
    ++whole_file_reads;
    return ForwardingEnv::ReadFileToBytes(path);
  }
  Status ReadFileRange(const std::string& path, uint64_t offset,
                       size_t length, Bytes* out) override {
    ++range_reads;
    largest_read = std::max(largest_read, length);
    if (offset != next_offset) out_of_order = true;
    const size_t before = out->size();
    Status status = ForwardingEnv::ReadFileRange(path, offset, length, out);
    bytes_read += out->size() - before;
    next_offset = offset + (out->size() - before);
    return status;
  }

  size_t whole_file_reads = 0;
  size_t range_reads = 0;
  size_t largest_read = 0;
  uint64_t bytes_read = 0;
  uint64_t next_offset = 0;
  bool out_of_order = false;
};

TEST_F(CheckpointTest, RoundTripRestoresStoreAndManifest) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                                      /*wal_horizon=*/3, Sealer(),
                                      /*sealer_id=*/1)
                  .ok());
  ASSERT_TRUE(env_->FileExists(CheckpointFileName(dir_, 3)));

  auto verifier = SealVerifier();
  auto loaded = CheckpointReader::Load(env_, CheckpointFileName(dir_, 3),
                                       verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->manifest.wal_horizon, 3u);
  EXPECT_EQ(loaded->manifest.sealer, 1u);
  EXPECT_EQ(loaded->manifest.live_records, 3u);
  EXPECT_EQ(loaded->manifest.chain_count, 2u);
  EXPECT_EQ(loaded->store.record_count(), 3u);
  EXPECT_EQ(loaded->store.ChainOf(7), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(loaded->store.record(1).checksum, Bytes(128, 2));
}

TEST_F(CheckpointTest, EmptyStoreStillSeals) {
  ProvenanceStore store;
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              1, Sealer(), 1).ok());
  auto verifier = SealVerifier();
  auto loaded =
      CheckpointReader::Load(env_, CheckpointFileName(dir_, 1), verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->store.record_count(), 0u);
  EXPECT_EQ(loaded->manifest.chain_count, 0u);
}

TEST_F(CheckpointTest, PrunedRecordsAreNotResurrected) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(store.PruneObject(9).ok());
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              2, Sealer(), 1).ok());

  auto verifier = SealVerifier();
  auto loaded =
      CheckpointReader::Load(env_, CheckpointFileName(dir_, 2), verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->manifest.live_records, 2u);
  EXPECT_EQ(loaded->store.live_record_count(), 2u);
  EXPECT_TRUE(loaded->store.ChainOf(9).empty())
      << "pruned history must stay pruned across a checkpoint";
}

TEST_F(CheckpointTest, WriteRejectsHorizonZero) {
  ProvenanceStore store = SmallStore();
  EXPECT_EQ(CheckpointWriter::Write(env_, dir_, store.CurrentView(), 0,
                                    Sealer(), 1)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, EveryByteFlipIsRefused) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              1, Sealer(), 1).ok());
  const std::string path = CheckpointFileName(dir_, 1);
  const Bytes pristine = ReadAll(path);
  auto verifier = SealVerifier();
  ASSERT_TRUE(CheckpointReader::Load(env_, path, verifier).ok());

  // Flip every byte of the file, one at a time: each flip must be
  // refused — by the header check, a frame CRC, the framing parse, or
  // the seal — and never partially loaded.
  std::vector<StatusCode> codes;
  for (size_t i = 0; i < pristine.size(); ++i) {
    Bytes tampered = pristine;
    tampered[i] ^= 0xFF;
    WriteAll(path, tampered);
    auto loaded = CheckpointReader::Load(env_, path, verifier);
    EXPECT_FALSE(loaded.ok()) << "byte " << i << " flip was accepted";
    codes.push_back(loaded.status().code());
  }
  // The refusal of each flip, as the whole-file reader (which checked
  // every frame before decoding any record) gave it: every flip breaks
  // the header check or a frame CRC, so all 888 are kCorruption (6). The
  // streaming reader must refuse each byte with the same code.
  ASSERT_EQ(pristine.size(), 888u) << "the recorded matrix is for this file";
  EXPECT_EQ(RunLengths(codes), "6x888");
}

TEST_F(CheckpointTest, EveryCrcPatchedFlipKeepsItsRefusal) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              1, Sealer(), 1).ok());
  const std::string path = CheckpointFileName(dir_, 1);
  const Bytes pristine = ReadAll(path);
  auto verifier = SealVerifier();

  // Flip every payload byte of every frame and patch that frame's CRC,
  // so the damage passes framing and meets the decoders and the seal.
  std::vector<StatusCode> codes;
  for (size_t pos = kCheckpointHeaderSize; pos < pristine.size();) {
    const size_t length = ReadVarintAt(pristine, &pos);
    for (size_t i = pos; i < pos + length; ++i) {
      Bytes tampered = pristine;
      tampered[i] ^= 0xFF;
      Bytes crc;
      AppendFixed32(&crc, Crc32(ByteView(tampered.data() + pos, length)));
      std::copy(crc.begin(), crc.end(), tampered.begin() + pos + length);
      WriteAll(path, tampered);
      codes.push_back(
          CheckpointReader::Load(env_, path, verifier).status().code());
    }
    pos += length + 4;
  }
  // Recorded from the whole-file reader: the 6 manifest bytes fail the
  // manifest checks (kCorruption, 6); every record, chain-tails and
  // signature byte fails the seal (kVerificationFailed, 8) — even where
  // the flipped record no longer decodes — except the seal's own length
  // prefix, which no longer parses (6).
  EXPECT_EQ(RunLengths(codes), "6x6 8x763 6x1 8x64");
}

// Load streams the file: bounded ranged reads, front to back, never a
// whole-file read — even for a checkpoint whose chain-tails frame alone
// is larger than one read.
TEST_F(CheckpointTest, LoadStreamsInBoundedReads) {
  ProvenanceStore store;
  for (storage::ObjectId id = 1; id <= 1200; ++id) {
    ASSERT_TRUE(store
                    .AddRecord(Rec(id, 0, OperationType::kInsert,
                                   static_cast<uint8_t>(id)))
                    .ok());
  }
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              1, Sealer(), 1).ok());
  const std::string path = CheckpointFileName(dir_, 1);
  auto size = env_->FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_GT(*size, 3u * 64 * 1024) << "the file must span several reads";

  ReadCountingEnv counting(env_);
  auto verifier = SealVerifier();
  auto loaded = CheckpointReader::Load(&counting, path, verifier);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->store.live_record_count(), 1200u);
  EXPECT_EQ(counting.whole_file_reads, 0u);
  EXPECT_LE(counting.largest_read, 64u * 1024);
  EXPECT_GE(counting.range_reads, 4u);
  EXPECT_FALSE(counting.out_of_order) << "each byte is read once, in order";
  EXPECT_EQ(counting.bytes_read, *size);
}

/// The checkpoint bytes `pristine` with the manifest frame replaced by
/// `manifest` (frame CRC recomputed) and every other frame as it was.
Bytes WithManifest(const Bytes& pristine, const Bytes& manifest) {
  size_t pos = kCheckpointHeaderSize;
  const size_t length = ReadVarintAt(pristine, &pos);
  Bytes out(pristine.begin(), pristine.begin() + kCheckpointHeaderSize);
  AppendVarint64(&out, manifest.size());
  AppendBytes(&out, manifest);
  AppendFixed32(&out, Crc32(manifest));
  out.insert(out.end(), pristine.begin() + static_cast<std::ptrdiff_t>(
                                               pos + length + 4),
             pristine.end());
  return out;
}

// A manifest that claims 2^40 records (or chains) carries a valid CRC,
// so only the frame count exposes it. It is refused as kCorruption, and
// the load reads nothing past the file: a reservation sized by the claim
// (2^40 slots) is one no allocator grants, so it would throw instead.
TEST_F(CheckpointTest, HugeManifestClaimsAreRefusedWithoutAllocating) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              1, Sealer(), 1).ok());
  const std::string path = CheckpointFileName(dir_, 1);
  const Bytes pristine = ReadAll(path);
  auto verifier = SealVerifier();
  constexpr uint64_t kClaim = uint64_t{1} << 40;

  struct Claim {
    const char* what;
    uint64_t live_records;
    uint64_t chain_count;
  };
  for (const Claim& claim : {Claim{"records", kClaim, 2},
                             Claim{"chains", 3, kClaim}}) {
    SCOPED_TRACE(claim.what);
    // The manifest layout of checkpoint.cc: version, horizon, sealer,
    // root hash, live records, chain count.
    Bytes manifest;
    AppendByte(&manifest, kCheckpointVersion);
    AppendVarint64(&manifest, 1);
    AppendVarint64(&manifest, 1);
    AppendVarint64(&manifest,
                   static_cast<uint64_t>(crypto::HashAlgorithm::kSha1));
    AppendVarint64(&manifest, claim.live_records);
    AppendVarint64(&manifest, claim.chain_count);
    const Bytes forged = WithManifest(pristine, manifest);
    WriteAll(path, forged);

    ReadCountingEnv counting(env_);
    auto loaded = CheckpointReader::Load(&counting, path, verifier);
    ASSERT_FALSE(loaded.ok());
    // Too many records is a frame-count mismatch; a forged chain count
    // changes the sealed root, so the seal refuses it first.
    EXPECT_EQ(loaded.status().code(), claim.live_records == kClaim
                                          ? StatusCode::kCorruption
                                          : StatusCode::kVerificationFailed)
        << loaded.status().ToString();
    EXPECT_LE(counting.bytes_read, forged.size());
  }

  // A frame length of 2^40 is refused before anything is read for it.
  Bytes forged(pristine.begin(), pristine.begin() + kCheckpointHeaderSize);
  AppendVarint64(&forged, kClaim);
  forged.insert(forged.end(), 64, 0);
  WriteAll(path, forged);
  ReadCountingEnv counting(env_);
  auto loaded = CheckpointReader::Load(&counting, path, verifier);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_LE(counting.bytes_read, forged.size());
}

TEST_F(CheckpointTest, TamperedRecordWithPatchedCrcFailsTheSeal) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              1, Sealer(), 1).ok());
  const std::string path = CheckpointFileName(dir_, 1);
  Bytes content = ReadAll(path);

  // Walk to the second frame (the first record), flip a payload byte,
  // and recompute that frame's CRC so the tamper passes every integrity
  // check short of the signature.
  size_t pos = kCheckpointHeaderSize;
  size_t manifest_len = ReadVarintAt(content, &pos);
  pos += manifest_len + 4;
  size_t record_len = ReadVarintAt(content, &pos);
  content[pos + record_len / 2] ^= 0x01;
  const uint32_t patched =
      Crc32(ByteView(content.data() + pos, record_len));
  Bytes crc;
  AppendFixed32(&crc, patched);
  for (size_t i = 0; i < 4; ++i) {
    content[pos + record_len + i] = crc[i];
  }
  WriteAll(path, content);

  auto verifier = SealVerifier();
  auto loaded = CheckpointReader::Load(env_, path, verifier);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVerificationFailed)
      << loaded.status().ToString();
}

TEST_F(CheckpointTest, WrongKeyIsRefused) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              1, Sealer(), 1).ok());
  // Participant 2's key did not seal this checkpoint.
  crypto::RsaSignatureVerifier wrong_key(
      TestPki::Instance().participant(1).public_key());
  auto loaded =
      CheckpointReader::Load(env_, CheckpointFileName(dir_, 1), wrong_key);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVerificationFailed);
}

TEST_F(CheckpointTest, LatestHorizonPicksNewestAndIgnoresTmp) {
  EXPECT_EQ(LatestCheckpointHorizon(env_, dir_).status().code(),
            StatusCode::kNotFound);

  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              2, Sealer(), 1).ok());
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              5, Sealer(), 1).ok());
  // An in-flight .tmp (crash mid-write) must never win, whatever its
  // number claims.
  WriteAll(dir_ + "/checkpoint-000009.pvck.tmp", Bytes(8, 0xAB));

  auto latest = LatestCheckpointHorizon(env_, dir_);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 5u);
}

TEST_F(CheckpointTest, RemoveStaleKeepsTheSealAtKeepHorizon) {
  ProvenanceStore store = SmallStore();
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              2, Sealer(), 1).ok());
  ASSERT_TRUE(
      CheckpointWriter::Write(env_, dir_, store.CurrentView(),
                              5, Sealer(), 1).ok());
  WriteAll(dir_ + "/checkpoint-000009.pvck.tmp", Bytes(8, 0xAB));

  ASSERT_TRUE(RemoveStaleCheckpoints(env_, dir_, 5).ok());
  EXPECT_FALSE(env_->FileExists(CheckpointFileName(dir_, 2)));
  EXPECT_TRUE(env_->FileExists(CheckpointFileName(dir_, 5)));
  EXPECT_FALSE(env_->FileExists(dir_ + "/checkpoint-000009.pvck.tmp"));
  // Idempotent, like WAL GC.
  EXPECT_TRUE(RemoveStaleCheckpoints(env_, dir_, 5).ok());
}

}  // namespace
}  // namespace provdb::provenance
