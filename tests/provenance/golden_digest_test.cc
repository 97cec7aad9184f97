// Golden-digest regression test: the runtime backstop for lint rule R01
// (canonical encoding must never drift).
//
// A fixed workload — fixed PKI seed, fixed operation sequence — must
// serialize to byte-identical provenance bundles forever: the SHA-256 of
// the wire encoding is pinned below. Any change to record encoding, value
// canonicalization, signature formatting, or (the R01 hazard) an
// iteration-order-dependent serialization path flips the digest and fails
// this test, even if verification still happens to pass.
//
// If this test fails because you *intentionally* changed the wire format,
// treat it as a compatibility break: bump the format, then re-pin the
// constant from the test's failure output.

#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/hash.h"
#include "provenance/checkpoint.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

/// SHA-256 of the serialized recipient bundle produced by BuildBundle().
/// Pinned 2026-08-06; every byte of the encoding (varints, value
/// canonicalization, record layout, RSA signatures from the fixed-seed
/// test PKI) is covered.
constexpr char kGoldenBundleSha256[] =
    "bcca8d0f95604b6196af16574a5e94eafcc3776dfaae84bfab8085b0bd84d358";

/// The fixed workload: three chains (insert + updates), one aggregation
/// across them, and a compound object, exercising every record kind the
/// wire format encodes.
RecipientBundle BuildBundle() {
  const TestPki& pki = TestPki::Instance();
  const auto& alice = pki.participant(0);
  const auto& bob = pki.participant(1);
  const auto& carol = pki.participant(2);

  TrackedDatabase db;
  ObjectId a = db.Insert(alice, Value::String("alpha-0")).value();
  ObjectId b = db.Insert(bob, Value::Int(42)).value();
  ObjectId c = db.Insert(carol, Value::Double(2.5)).value();

  EXPECT_TRUE(db.Update(bob, a, Value::String("alpha-1")).ok());
  EXPECT_TRUE(db.Update(alice, a, Value::String("alpha-2")).ok());
  EXPECT_TRUE(db.Update(carol, b, Value::Int(43)).ok());

  // A compound object under a fresh root, then one nested update.
  ObjectId root = db.Insert(alice, Value::String("table")).value();
  ObjectId row = db.Insert(alice, Value::Int(1), root).value();
  ObjectId cell = db.Insert(bob, Value::String("cell"), row).value();
  EXPECT_TRUE(db.Update(bob, cell, Value::String("cell'")).ok());

  // Aggregate the three chains into a report object.
  ObjectId report =
      db.Aggregate(carol, {a, b, c}, Value::String("summary")).value();
  EXPECT_TRUE(db.Update(carol, report, Value::String("summary-v2")).ok());

  return db.ExportForRecipient(report).value();
}

/// SHA-1 of the sealed checkpoint file BuildCheckpointFile() writes.
/// Pinned 2026-10-17 against the store-scanning serializer, before
/// CheckpointWriter moved onto read views: the file covers the header,
/// manifest, every live record in store-index order, the chain tails and
/// the RSA seal, so any drift in record order, tail order or framing
/// flips it.
constexpr char kGoldenCheckpointSha1[] =
    "d680cad43a76ed76f235ecb988abbbe29b74b5e4";

/// A seeded workload over several chains — interleaved updates, an
/// aggregate, a deleted-and-pruned object (a tombstone between live
/// records) — sealed into one checkpoint file; returns the file bytes.
Bytes BuildCheckpointFile() {
  const TestPki& pki = TestPki::Instance();
  TrackedDatabase db;
  std::vector<ObjectId> objects;
  for (int i = 0; i < 6; ++i) {
    objects.push_back(
        db.Insert(pki.participant(static_cast<size_t>(i) % 4),
                  Value::Int(i))
            .value());
  }
  ObjectId doomed = db.Insert(pki.participant(1), Value::Int(99)).value();
  EXPECT_TRUE(db.Update(pki.participant(2), doomed, Value::Int(100)).ok());
  Rng rng(0xC4EC4901u);
  for (int i = 0; i < 24; ++i) {
    ObjectId id = objects[rng.NextBelow(objects.size())];
    EXPECT_TRUE(db.Update(pki.participant(rng.NextBelow(4)), id,
                          Value::Int(static_cast<int64_t>(rng.NextBelow(1000))))
                    .ok());
  }
  ObjectId merged = db.Aggregate(pki.participant(3),
                                 {objects[0], objects[2], objects[4]},
                                 Value::String("merged"))
                        .value();
  EXPECT_TRUE(db.Update(pki.participant(0), merged, Value::String("m2")).ok());
  EXPECT_TRUE(db.Update(pki.participant(1), objects[5], Value::Int(7)).ok());
  EXPECT_TRUE(db.mutable_provenance()->PruneObject(doomed).ok());

  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/provdb_golden_checkpoint";
  EXPECT_TRUE(env->CreateDir(dir).ok());
  const uint64_t horizon = 7;
  EXPECT_TRUE(CheckpointWriter::Write(env, dir, db.provenance().CurrentView(),
                                      horizon, pki.participant(0).signer(),
                                      pki.participant(0).id())
                  .ok());
  auto bytes = env->ReadFileToBytes(CheckpointFileName(dir, horizon));
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(env->RemoveFile(CheckpointFileName(dir, horizon)).ok());
  return bytes.ok() ? *bytes : Bytes();
}

TEST(GoldenDigestTest, BundleEncodingIsPinned) {
  RecipientBundle bundle = BuildBundle();
  Bytes wire = bundle.Serialize();
  std::string digest =
      HexEncode(crypto::HashBytes(crypto::HashAlgorithm::kSha256, wire)
                    .view());
  EXPECT_EQ(digest, kGoldenBundleSha256)
      << "canonical bundle encoding drifted (" << wire.size()
      << " wire bytes). If intentional, re-pin kGoldenBundleSha256.";
}

TEST(GoldenDigestTest, CheckpointFileIsPinned) {
  Bytes file = BuildCheckpointFile();
  ASSERT_FALSE(file.empty());
  std::string digest =
      HexEncode(crypto::HashBytes(crypto::HashAlgorithm::kSha1, file).view());
  EXPECT_EQ(digest, kGoldenCheckpointSha1)
      << "checkpoint file encoding drifted (" << file.size()
      << " bytes). If intentional, re-pin kGoldenCheckpointSha1.";
}

TEST(GoldenDigestTest, EncodingIsStableAcrossRebuilds) {
  // Two independently built databases running the same workload must
  // serialize identically — no address-, allocation-, or hash-seed-
  // dependent bytes may reach the wire.
  Bytes first = BuildBundle().Serialize();
  Bytes second = BuildBundle().Serialize();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second);
}

TEST(GoldenDigestTest, PinnedBundleVerifiesSequentiallyAndParallel) {
  RecipientBundle bundle = BuildBundle();

  ProvenanceVerifier sequential(&TestPki::Instance().registry());
  VerificationReport seq_report = sequential.Verify(bundle);
  EXPECT_TRUE(seq_report.ok()) << seq_report.ToString();

  ProvenanceVerifier parallel(&TestPki::Instance().registry(),
                              crypto::HashAlgorithm::kSha1,
                              ParallelismConfig{4});
  VerificationReport par_report = parallel.Verify(bundle);
  EXPECT_TRUE(par_report.ok()) << par_report.ToString();

  // Same report, byte for byte (the parallel engine's contract).
  EXPECT_EQ(seq_report.ToString(), par_report.ToString());
  EXPECT_EQ(seq_report.records_checked, par_report.records_checked);
  EXPECT_EQ(seq_report.signatures_verified, par_report.signatures_verified);
}

}  // namespace
}  // namespace provdb::provenance
