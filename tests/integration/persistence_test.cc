// Durable-provenance integration: TrackedDatabase -> WAL -> sealed
// checkpoint on disk -> recovery -> extraction -> verification, with
// corruption injected at each layer. The checkpoint format's own unit
// matrix (every single-byte flip, wrong key, stale-seal GC) lives in
// checkpoint_test.cc; these tests drive the whole persistence path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/varint.h"
#include "crypto/signer.h"
#include "provenance/auditor.h"
#include "provenance/checkpoint.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/wal.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::Env;
using storage::ObjectId;
using storage::Value;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/provdb_persist_" + info->name();
    Wipe(dir_);
    root_ = *db_.Insert(p(1), Value::String("db"));
    row_ = *db_.Insert(p(1), Value::Int(0), root_);
    cell_ = *db_.Insert(p(2), Value::Int(5), row_);
    EXPECT_TRUE(db_.Update(p(1), cell_, Value::Int(6)).ok());
    auto agg = db_.Aggregate(p(2), {root_}, Value::String("agg"));
    EXPECT_TRUE(agg.ok());
    agg_ = *agg;
  }

  void TearDown() override { db_.mutable_provenance()->DetachWal(); }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  /// Removes every file in `dir` (leftovers of an earlier run would be
  /// recovered as history) and makes sure the directory exists.
  static void Wipe(const std::string& dir) {
    Env* env = Env::Default();
    auto names = env->ListDir(dir);
    if (names.ok()) {
      for (const std::string& name : *names) {
        ASSERT_TRUE(env->RemoveFile(dir + "/" + name).ok());
      }
    }
    ASSERT_TRUE(env->CreateDir(dir).ok());
  }

  /// Attaches a WAL (which logs the existing records) and seals them into
  /// a checkpoint signed by participant 1.
  void Persist() {
    auto wal = storage::WalWriter::Open(Env::Default(), dir_);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    wal_ = std::make_unique<storage::WalWriter>(std::move(wal).value());
    ASSERT_TRUE(db_.AttachWal(wal_.get()).ok());
    Status sealed = db_.CheckpointWal(p(1).signer(), p(1).id());
    ASSERT_TRUE(sealed.ok()) << sealed.ToString();
  }

  Result<ProvenanceStore> Recover() {
    crypto::RsaSignatureVerifier verifier(p(1).public_key());
    return ProvenanceStore::RecoverFromWal(Env::Default(), dir_, nullptr,
                                           &verifier);
  }

  std::string CheckpointPath() {
    Result<uint64_t> horizon = LatestCheckpointHorizon(Env::Default(), dir_);
    EXPECT_TRUE(horizon.ok()) << horizon.status().ToString();
    return CheckpointFileName(dir_, horizon.ok() ? horizon.value() : 0);
  }

  Bytes ReadAll(const std::string& path) {
    auto content = Env::Default()->ReadFileToBytes(path);
    EXPECT_TRUE(content.ok());
    return std::move(content).value();
  }

  void WriteAll(const std::string& path, const Bytes& content) {
    auto file = Env::Default()->NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(content).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  std::string dir_;
  std::unique_ptr<storage::WalWriter> wal_;  // outlives db_'s attachment
  TrackedDatabase db_;
  ObjectId root_, row_, cell_, agg_;
};

/// Offset and length of the first record frame's payload: the frame
/// after the header and the manifest frame (`varint len || payload ||
/// crc32` each).
std::pair<size_t, size_t> FirstRecordPayload(const Bytes& content) {
  VarintReader reader(ByteView(content).subview(kCheckpointHeaderSize));
  const uint64_t manifest_len = reader.ReadVarint64().value();
  const size_t record_frame =
      kCheckpointHeaderSize + reader.position() + manifest_len + 4;
  VarintReader frame(ByteView(content).subview(record_frame));
  const uint64_t record_len = frame.ReadVarint64().value();
  return {record_frame + frame.position(), static_cast<size_t>(record_len)};
}

TEST_F(PersistenceTest, FullRoundTripVerifies) {
  Persist();
  if (HasFatalFailure()) return;
  auto restored = Recover();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->record_count(), db_.provenance().record_count());

  // Bundle built from the restored store + a live snapshot verifies.
  RecipientBundle bundle;
  bundle.subject = agg_;
  bundle.data = *SubtreeSnapshot::Capture(db_.tree(), agg_);
  bundle.records = *restored->ExtractProvenance(agg_);
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto report = verifier.Verify(bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // The restored store audits clean against the live tree.
  StoreAuditor auditor(&TestPki::Instance().registry());
  auto audit = auditor.Audit(restored->QuiescentSnapshot(), db_.tree());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_F(PersistenceTest, RestoredStorePreservesChainsAndAccounting) {
  Persist();
  if (HasFatalFailure()) return;
  auto restored = Recover();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ProvenanceStore& original = db_.provenance();
  for (ObjectId object : {root_, row_, cell_, agg_}) {
    SCOPED_TRACE("object " + std::to_string(object));
    const std::vector<uint64_t> want = original.ChainOf(object);
    const std::vector<uint64_t> got = restored->ChainOf(object);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(EncodeRecord(restored->record(got[i])),
                EncodeRecord(original.record(want[i])));
    }
  }
  EXPECT_EQ(restored->PaperSchemaBytes(), original.PaperSchemaBytes());
  EXPECT_EQ(restored->ChecksumBytes(), original.ChecksumBytes());
  EXPECT_EQ(restored->live_record_count(), original.live_record_count());
}

TEST_F(PersistenceTest, OnDiskBitFlipCaughtByCrc) {
  Persist();
  if (HasFatalFailure()) return;
  const std::string path = CheckpointPath();
  Bytes content = ReadAll(path);
  const auto [offset, length] = FirstRecordPayload(content);
  ASSERT_GT(length, 0u);
  content[offset + length / 2] ^= 0x20;
  WriteAll(path, content);

  auto restored = Recover();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption)
      << restored.status().ToString();
}

TEST_F(PersistenceTest, TamperedRecordInLogCaughtCryptographically) {
  // An attacker who rewrites a record *and* fixes the frame CRC still
  // cannot fix the checkpoint's signed seal.
  Persist();
  if (HasFatalFailure()) return;
  const std::string path = CheckpointPath();
  Bytes content = ReadAll(path);
  const auto [offset, length] = FirstRecordPayload(content);
  auto rec = DecodeRecord(ByteView(content.data() + offset, length));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  rec->output.state_hash.mutable_data()[0] ^= 1;
  const Bytes rewritten = EncodeRecord(*rec);  // valid encoding
  ASSERT_EQ(rewritten.size(), length);
  Bytes crc;
  AppendFixed32(&crc, Crc32(rewritten));  // valid CRC
  std::copy(rewritten.begin(), rewritten.end(), content.begin() + offset);
  std::copy(crc.begin(), crc.end(), content.begin() + offset + length);
  WriteAll(path, content);

  auto restored = Recover();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kVerificationFailed)
      << restored.status().ToString();
}

TEST_F(PersistenceTest, ReorderedLogStillRejectedOrDetected) {
  // Record entries of one object written to the WAL in reverse order
  // violate the store's seq monotonicity on replay.
  auto wal = storage::WalWriter::Open(Env::Default(), dir_);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const ProvenanceStore& store = db_.provenance();
  for (uint64_t i = store.record_count(); i-- > 0;) {
    ASSERT_TRUE(wal->Append(EncodeWalRecordEntry(store.record(i))).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());
  auto restored = Recover();
  EXPECT_FALSE(restored.ok());
}

TEST_F(PersistenceTest, SnapshotOfStaleStateFailsVerification) {
  // Verification against recovered records requires the *current* data:
  // roll the data forward after sealing, and a stale subtree snapshot
  // shipped with the recovered (checkpoint + WAL suffix) records fails.
  Persist();
  if (HasFatalFailure()) return;
  SubtreeSnapshot stale = *SubtreeSnapshot::Capture(db_.tree(), agg_);

  // Advance the aggregate after the snapshot; the WAL logs the update.
  ASSERT_TRUE(db_.Update(p(1), agg_, Value::String("agg-v2")).ok());
  ASSERT_TRUE(db_.SyncWal().ok());
  auto restored = Recover();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->record_count(), db_.provenance().record_count());

  RecipientBundle bundle;
  bundle.subject = agg_;
  bundle.data = stale;
  bundle.records = *restored->ExtractProvenance(agg_);
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto report = verifier.Verify(bundle);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kDataHashMismatch));
}

}  // namespace
}  // namespace provdb::provenance
