// Determinism of the parallel verification engine: with any thread count,
// the ProvenanceVerifier and StoreAuditor must produce reports identical
// to the sequential path — same issues, same order, same counters — on
// clean and on tampered inputs. Chains are per-object and local (§3.2),
// which is exactly what makes this fan-out sound.

#include <gtest/gtest.h>

#include "provenance/attack.h"
#include "provenance/auditor.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

void ExpectReportsIdentical(const VerificationReport& sequential,
                            const VerificationReport& parallel) {
  EXPECT_EQ(sequential.records_checked, parallel.records_checked);
  EXPECT_EQ(sequential.signatures_verified, parallel.signatures_verified);
  ASSERT_EQ(sequential.issues.size(), parallel.issues.size());
  for (size_t i = 0; i < sequential.issues.size(); ++i) {
    EXPECT_EQ(sequential.issues[i].kind, parallel.issues[i].kind) << i;
    EXPECT_EQ(sequential.issues[i].object, parallel.issues[i].object) << i;
    EXPECT_EQ(sequential.issues[i].seq_id, parallel.issues[i].seq_id) << i;
    EXPECT_EQ(sequential.issues[i].message, parallel.issues[i].message) << i;
  }
  // Byte-stable rendering, the contract consumers see.
  EXPECT_EQ(sequential.ToString(), parallel.ToString());
}

class ParallelVerifyTest : public ::testing::Test {
 protected:
  // A multi-object history: several independent chains plus an aggregate
  // whose verification resolves inputs across chains.
  void SetUp() override {
    a_ = *db_.Insert(p(1), Value::String("a1"));
    ASSERT_TRUE(db_.Update(p(2), a_, Value::String("a2")).ok());
    ASSERT_TRUE(db_.Update(p(1), a_, Value::String("a3")).ok());
    b_ = *db_.Insert(p(2), Value::String("b1"));
    ASSERT_TRUE(db_.Update(p(3), b_, Value::String("b2")).ok());
    c_ = *db_.Insert(p(3), Value::String("c1"));
    agg_ = *db_.Aggregate(p(1), {a_, b_}, Value::String("agg"));
    bundle_ = *db_.ExportForRecipient(a_);
  }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  VerificationReport VerifySequential(const RecipientBundle& bundle) {
    ProvenanceVerifier verifier(&TestPki::Instance().registry());
    return verifier.Verify(bundle);
  }

  VerificationReport VerifyParallel(const RecipientBundle& bundle,
                                    int threads) {
    ProvenanceVerifier verifier(&TestPki::Instance().registry(),
                                crypto::HashAlgorithm::kSha1,
                                ParallelismConfig{threads});
    return verifier.Verify(bundle);
  }

  void ExpectAllThreadCountsAgree(const RecipientBundle& bundle) {
    VerificationReport sequential = VerifySequential(bundle);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectReportsIdentical(sequential, VerifyParallel(bundle, threads));
    }
  }

  TrackedDatabase db_;
  ObjectId a_ = storage::kInvalidObjectId;
  ObjectId b_ = storage::kInvalidObjectId;
  ObjectId c_ = storage::kInvalidObjectId;
  ObjectId agg_ = storage::kInvalidObjectId;
  RecipientBundle bundle_;
};

TEST_F(ParallelVerifyTest, CleanBundleReportsIdentical) {
  ASSERT_TRUE(VerifySequential(bundle_).ok());
  ExpectAllThreadCountsAgree(bundle_);
}

TEST_F(ParallelVerifyTest, CleanAggregateBundleReportsIdentical) {
  RecipientBundle bundle = *db_.ExportForRecipient(agg_);
  ASSERT_TRUE(VerifySequential(bundle).ok());
  ExpectAllThreadCountsAgree(bundle);
}

TEST_F(ParallelVerifyTest, TamperedBundleReportsIdentical) {
  // One tampered bundle per attack primitive from the R1-R8 suite.
  {
    RecipientBundle tampered = bundle_;
    ASSERT_TRUE(attacks::TamperRecordOutputHash(&tampered, 1).ok());
    EXPECT_FALSE(VerifySequential(tampered).ok());
    ExpectAllThreadCountsAgree(tampered);
  }
  {
    RecipientBundle tampered = bundle_;
    ASSERT_TRUE(attacks::RemoveRecord(&tampered, 1).ok());
    ExpectAllThreadCountsAgree(tampered);
  }
  {
    RecipientBundle tampered = bundle_;
    ASSERT_TRUE(
        attacks::TamperDataValue(&tampered, a_, Value::String("forged"))
            .ok());
    ExpectAllThreadCountsAgree(tampered);
  }
  {
    RecipientBundle tampered = bundle_;
    ASSERT_TRUE(attacks::ReassignRecordParticipant(&tampered, 0, 999).ok());
    ExpectAllThreadCountsAgree(tampered);
  }
}

TEST_F(ParallelVerifyTest, TamperedAggregateReportsIdentical) {
  RecipientBundle bundle = *db_.ExportForRecipient(agg_);
  for (size_t i = 0; i < bundle.records.size(); ++i) {
    if (bundle.records[i].op == OperationType::kAggregate) {
      ASSERT_TRUE(attacks::TamperRecordInputHash(&bundle, i, 0).ok());
      break;
    }
  }
  EXPECT_FALSE(VerifySequential(bundle).ok());
  ExpectAllThreadCountsAgree(bundle);
}

TEST_F(ParallelVerifyTest, MultiIssueBundleKeepsIssueOrder) {
  // Several independent chains broken at once: the merged parallel report
  // must list them in the same (object id, seq) order as the sequential.
  RecipientBundle bundle = *db_.ExportForRecipientDeep(agg_);
  size_t tampered_count = 0;
  for (size_t i = 0; i < bundle.records.size() && tampered_count < 3; ++i) {
    if (attacks::TamperRecordOutputHash(&bundle, i).ok()) {
      ++tampered_count;
    }
  }
  ASSERT_GE(tampered_count, 3u);
  VerificationReport sequential = VerifySequential(bundle);
  EXPECT_GE(sequential.issues.size(), 3u);
  ExpectAllThreadCountsAgree(bundle);
}

class ParallelAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = *db_.Insert(p(1), Value::String("db"));
    table_ = *db_.Insert(p(1), Value::String("t"), root_);
    for (int r = 0; r < 6; ++r) {
      ObjectId row = *db_.Insert(p(2), Value::Int(r), table_);
      rows_.push_back(row);
      cells_.push_back(*db_.Insert(p(2), Value::Int(r * 10), row));
    }
    ASSERT_TRUE(db_.Update(p(1), cells_[0], Value::Int(-1)).ok());
    ASSERT_TRUE(db_.Update(p(3), cells_[3], Value::Int(-2)).ok());
  }

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  void ExpectAllThreadCountsAgree() {
    StoreAuditor sequential(&TestPki::Instance().registry());
    VerificationReport expected =
        sequential.Audit(db_.provenance().QuiescentSnapshot(), db_.tree());
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      StoreAuditor parallel(&TestPki::Instance().registry(),
                            crypto::HashAlgorithm::kSha1,
                            ParallelismConfig{threads});
      ExpectReportsIdentical(
          expected,
          parallel.Audit(db_.provenance().QuiescentSnapshot(), db_.tree()));
    }
  }

  TrackedDatabase db_;
  ObjectId root_, table_;
  std::vector<ObjectId> rows_, cells_;
};

TEST_F(ParallelAuditTest, CleanStoreReportsIdentical) {
  StoreAuditor auditor(&TestPki::Instance().registry(),
                       crypto::HashAlgorithm::kSha1, ParallelismConfig{4});
  EXPECT_TRUE(
      auditor.Audit(db_.provenance().QuiescentSnapshot(), db_.tree()).ok());
  ExpectAllThreadCountsAgree();
}

TEST_F(ParallelAuditTest, TamperedLiveObjectReportsIdentical) {
  ASSERT_TRUE(db_.bootstrap_tree().Update(cells_[2], Value::Int(666)).ok());
  StoreAuditor auditor(&TestPki::Instance().registry(),
                       crypto::HashAlgorithm::kSha1, ParallelismConfig{4});
  VerificationReport report =
      auditor.Audit(db_.provenance().QuiescentSnapshot(), db_.tree());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasIssue(IssueKind::kDataHashMismatch));
  ExpectAllThreadCountsAgree();
}

TEST_F(ParallelAuditTest, TamperedChecksumReportsIdentical) {
  db_.mutable_provenance()->mutable_record(2)->checksum[1] ^= 0x40;
  StoreAuditor auditor(&TestPki::Instance().registry(),
                       crypto::HashAlgorithm::kSha1, ParallelismConfig{4});
  EXPECT_TRUE(auditor.Audit(db_.provenance().QuiescentSnapshot(), db_.tree())
                  .HasIssue(IssueKind::kBadSignature));
  ExpectAllThreadCountsAgree();
}

TEST_F(ParallelAuditTest, AuditorReusesPoolAcrossAudits) {
  // One auditor, several audits: the owned pool must survive reuse.
  StoreAuditor auditor(&TestPki::Instance().registry(),
                       crypto::HashAlgorithm::kSha1, ParallelismConfig{4});
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(
        auditor.Audit(db_.provenance().QuiescentSnapshot(), db_.tree()).ok())
        << round;
  }
}

}  // namespace
}  // namespace provdb::provenance
