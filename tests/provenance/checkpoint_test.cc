// Signed checkpoints: seal/load round trip, tamper refusal (every bit
// flip is caught by a CRC or by the seal), wrong-key refusal, stale
// checkpoint GC, and the in-flight .tmp handling around crashes.

#include "provenance/checkpoint.h"

#include <gtest/gtest.h>

#include <string>

#include "common/crc32.h"
#include "crypto/signer.h"
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
  for (size_t i = 0; i < pristine.size(); ++i) {
    Bytes tampered = pristine;
    tampered[i] ^= 0xFF;
    WriteAll(path, tampered);
    auto loaded = CheckpointReader::Load(env_, path, verifier);
    EXPECT_FALSE(loaded.ok()) << "byte " << i << " flip was accepted";
  }
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
