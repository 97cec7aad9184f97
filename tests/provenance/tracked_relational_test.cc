#include "provenance/tracked_relational.h"

#include <gtest/gtest.h>

#include "provenance/query.h"
#include "provenance/verifier.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

class TrackedRelationalTest : public ::testing::Test {
 protected:
  TrackedRelationalTest() : db_("trial", p(1)) {}

  const crypto::Participant& p(int i) {
    return TestPki::Instance().participant(i - 1);
  }

  ObjectId MakePatients() {
    auto t = db_.CreateTable(p(1), "patients", {"age", "weight"});
    EXPECT_TRUE(t.ok());
    return *t;
  }

  VerificationReport Verify(ObjectId subject) {
    auto bundle = db_.Export(subject);
    EXPECT_TRUE(bundle.ok());
    ProvenanceVerifier verifier(&TestPki::Instance().registry());
    return verifier.Verify(*bundle);
  }

  TrackedRelationalDatabase db_;
};

TEST_F(TrackedRelationalTest, CreationEmitsProvenance) {
  ObjectId table = MakePatients();
  (void)table;
  // Root insert + table insert (with inherited root record) = 3 records.
  EXPECT_EQ(db_.tracked().provenance().record_count(), 3u);
  EXPECT_TRUE(Verify(db_.root()).ok());
}

TEST_F(TrackedRelationalTest, DuplicateTableAndBadSchemaRejected) {
  MakePatients();
  EXPECT_FALSE(db_.CreateTable(p(1), "patients", {"x"}).ok());
  EXPECT_FALSE(db_.CreateTable(p(1), "empty", {}).ok());
}

TEST_F(TrackedRelationalTest, InsertRowIsOneComplexOperation) {
  ObjectId table = MakePatients();
  uint64_t before = db_.tracked().provenance().record_count();
  auto row = db_.InsertRow(p(2), table, {Value::Int(44), Value::Double(81)});
  ASSERT_TRUE(row.ok());
  // Row + 2 cells (inserts) + table + root (inherited) = 5 records.
  EXPECT_EQ(db_.tracked().provenance().record_count() - before, 5u);
  EXPECT_EQ(*db_.GetCell(*row, 0), Value::Int(44));
  EXPECT_TRUE(Verify(db_.root()).ok());
}

TEST_F(TrackedRelationalTest, InsertRowArityChecked) {
  ObjectId table = MakePatients();
  EXPECT_FALSE(db_.InsertRow(p(1), table, {Value::Int(1)}).ok());
  EXPECT_FALSE(db_.InsertRow(p(1), 999, {Value::Int(1)}).ok());
  // Failure paths must leave no complex operation dangling.
  EXPECT_FALSE(db_.tracked().in_complex_operation());
}

TEST_F(TrackedRelationalTest, UpdateCellByNameAndIndex) {
  ObjectId table = MakePatients();
  auto row = db_.InsertRow(p(1), table, {Value::Int(44), Value::Double(81)});
  ASSERT_TRUE(row.ok());

  ASSERT_TRUE(db_.UpdateCell(p(2), *row, "age", Value::Int(45)).ok());
  EXPECT_EQ(*db_.GetCell(*row, 0), Value::Int(45));
  ASSERT_TRUE(db_.UpdateCell(p(2), *row, 1, Value::Double(82.5)).ok());
  EXPECT_EQ(*db_.GetCell(*row, 1), Value::Double(82.5));

  EXPECT_FALSE(db_.UpdateCell(p(2), *row, "missing", Value::Int(0)).ok());
  EXPECT_FALSE(db_.UpdateCell(p(2), *row, 7, Value::Int(0)).ok());
  EXPECT_TRUE(Verify(db_.root()).ok());
}

TEST_F(TrackedRelationalTest, UpdateInheritsUpward) {
  ObjectId table = MakePatients();
  auto row = db_.InsertRow(p(1), table, {Value::Int(44), Value::Double(81)});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(db_.UpdateCell(p(2), *row, "age", Value::Int(45)).ok());
  // cell + row + table + root records for the single cell update.
  EXPECT_EQ(db_.tracked().last_op_metrics().checksums, 4u);
  auto latest = db_.tracked().provenance().LatestFor(table);
  ASSERT_TRUE(latest.ok());
  EXPECT_TRUE((*latest)->inherited);
  EXPECT_EQ((*latest)->participant, p(2).id());
}

TEST_F(TrackedRelationalTest, DeleteRowIsOneComplexOperation) {
  ObjectId table = MakePatients();
  auto row = db_.InsertRow(p(1), table, {Value::Int(1), Value::Double(2)});
  ASSERT_TRUE(row.ok());
  uint64_t before = db_.tracked().provenance().record_count();
  ASSERT_TRUE(db_.DeleteRow(p(2), *row).ok());
  // Only table + root survive as touched.
  EXPECT_EQ(db_.tracked().provenance().record_count() - before, 2u);
  EXPECT_FALSE(db_.tracked().tree().Contains(*row));
  EXPECT_TRUE(Verify(db_.root()).ok());
}

TEST_F(TrackedRelationalTest, LookupsAndErrors) {
  ObjectId table = MakePatients();
  EXPECT_EQ(*db_.TableId("patients"), table);
  EXPECT_FALSE(db_.TableId("missing").ok());
  EXPECT_EQ(*db_.ColumnIndex(table, "weight"), 1u);
  EXPECT_FALSE(db_.ColumnIndex(table, "nope").ok());
  EXPECT_FALSE(db_.ColumnIndex(999, "age").ok());
  EXPECT_TRUE(db_.RowsOf(table)->empty());
  EXPECT_FALSE(db_.RowsOf(999).ok());
}

TEST_F(TrackedRelationalTest, MultiParticipantTrialScenario) {
  // A compressed clinical-trial flow through the convenience API.
  ObjectId table = MakePatients();
  std::vector<ObjectId> rows;
  for (int i = 0; i < 3; ++i) {
    auto row = db_.InsertRow(p(1), table,
                             {Value::Int(30 + i), Value::Double(70 + i)});
    ASSERT_TRUE(row.ok());
    rows.push_back(*row);
  }
  ASSERT_TRUE(db_.UpdateCell(p(3), rows[1], "weight", Value::Double(99))
                  .ok());
  ASSERT_TRUE(db_.DeleteRow(p(2), rows[2]).ok());

  VerificationReport report = Verify(db_.root());
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Lineage over the whole database names all three participants.
  auto summary = SummarizeLineage(
      db_.tracked().provenance().QuiescentSnapshot(), db_.root());
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->participants.size(), 3u);
}

TEST_F(TrackedRelationalTest, RowOrdinalsAssignedSequentially) {
  ObjectId table = MakePatients();
  auto r0 = db_.InsertRow(p(1), table, {Value::Int(1), Value::Double(1)});
  auto r1 = db_.InsertRow(p(1), table, {Value::Int(2), Value::Double(2)});
  EXPECT_EQ((*db_.tracked().tree().GetNode(*r0))->value, Value::Int(0));
  EXPECT_EQ((*db_.tracked().tree().GetNode(*r1))->value, Value::Int(1));
}

}  // namespace
}  // namespace provdb::provenance
