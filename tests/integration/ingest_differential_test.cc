// Randomized differential test: the same seeded workload driven into a
// sequential reference ProvenanceStore and into the sharded ingest
// pipeline at 1/2/8 shards must agree on every per-object chain (byte
// for byte), every live subtree digest, every verifier/auditor verdict,
// and every extraction and query answer. Failures log the seed so the
// exact run can be replayed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "provenance/auditor.h"
#include "provenance/serialization.h"
#include "provenance/subtree_hasher.h"
#include "testing/differential.h"

namespace provdb::provenance {
namespace {

using provdb::testing::CheckSameReads;
using provdb::testing::DifferentialWorkloadOptions;
using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::ReplayThroughPipeline;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::ObjectId;

/// Reference chains in the exact shape VerifyRecordChains consumes,
/// mirroring how the auditor groups a sequential store.
std::map<ObjectId, std::vector<const ProvenanceRecord*>> ReferenceChains(
    const ProvenanceStore& store) {
  std::map<ObjectId, std::vector<const ProvenanceRecord*>> chains;
  for (uint64_t i = 0; i < store.record_count(); ++i) {
    if (store.is_pruned(i)) continue;
    const ProvenanceRecord& rec = store.record(i);
    chains[rec.output.object_id].push_back(&rec);
  }
  return chains;
}

void RunDifferential(uint64_t seed, size_t num_shards) {
  SCOPED_TRACE("replay with seed=" + std::to_string(seed) +
               " num_shards=" + std::to_string(num_shards));
  IngestWorkloadBuilder builder;
  Status s = RandomDifferentialWorkload(&builder, seed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_GT(builder.requests().size(), 0u);

  IngestOptions options;
  options.num_shards = num_shards;
  options.max_batch_records = 5;  // several batches per shard
  options.signing.num_threads = 4;
  std::string root = ::testing::TempDir() + "/provdb_diff_" +
                     std::to_string(seed) + "_" + std::to_string(num_shards);
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline =
      ReplayThroughPipeline(Env::Default(), root, builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const ShardedProvenanceStore& sharded = (*pipeline)->store();
  const ProvenanceStore& reference = builder.reference_store();

  // (1) Identical per-object chains, byte for byte.
  EXPECT_EQ(sharded.record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    SCOPED_TRACE("object " + std::to_string(id));
    std::vector<uint64_t> ref_chain = reference.ChainOf(id);
    std::vector<const ProvenanceRecord*> shard_chain =
        sharded.ChainRecords(id);
    ASSERT_EQ(shard_chain.size(), ref_chain.size());
    for (size_t i = 0; i < ref_chain.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*shard_chain[i]),
                EncodeRecord(reference.record(ref_chain[i])))
          << "record " << i << " of chain " << id << " differs";
    }
  }

  // (2) Every tracked object's latest record hashes to the live subtree.
  SubtreeHasher hasher(&builder.tree(), builder.algorithm());
  for (ObjectId id : builder.tracked_objects()) {
    std::vector<const ProvenanceRecord*> chain = sharded.ChainRecords(id);
    ASSERT_FALSE(chain.empty());
    auto live = hasher.HashSubtreeBasic(id);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_TRUE(chain.back()->output.state_hash == *live)
        << "live digest diverged for object " << id;
  }

  // (3) Identical verifier verdicts (full report text, not just ok()).
  ChecksumEngine engine(builder.algorithm());
  VerificationReport ref_verify;
  VerifyRecordChains(builder.registry(), engine, ReferenceChains(reference),
                     &ref_verify);
  VerificationReport sharded_verify =
      sharded.VerifyChains(builder.registry(), builder.algorithm());
  EXPECT_TRUE(sharded_verify.ok()) << sharded_verify.ToString();
  EXPECT_EQ(sharded_verify.ToString(), ref_verify.ToString());
  EXPECT_EQ(sharded_verify.records_checked, ref_verify.records_checked);
  EXPECT_EQ(sharded_verify.signatures_verified,
            ref_verify.signatures_verified);

  // (4) Identical audit verdicts against the live tree: the pipeline's
  // snapshot against the reference store's quiescent snapshot.
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  const StoreSnapshot ref_snapshot = reference.QuiescentSnapshot();
  StoreAuditor auditor(&builder.registry(), builder.algorithm());
  VerificationReport audit_sharded = auditor.Audit(snapshot, builder.tree());
  VerificationReport audit_ref = auditor.Audit(ref_snapshot, builder.tree());
  EXPECT_TRUE(audit_sharded.ok()) << audit_sharded.ToString();
  EXPECT_EQ(audit_sharded.ToString(), audit_ref.ToString());

  // (4b) Identical extraction and query answers for every tracked object.
  // The reference store's own ExtractProvenance (index order) holds the
  // same records as the sharded (object id, seqID) order.
  Status reads = CheckSameReads(snapshot, ref_snapshot,
                                builder.tracked_objects());
  EXPECT_TRUE(reads.ok()) << reads.ToString();
  for (ObjectId id : builder.tracked_objects()) {
    auto from_shards = snapshot.ExtractProvenance(id);
    auto from_store = reference.ExtractProvenance(id);
    ASSERT_TRUE(from_shards.ok()) << from_shards.status().ToString();
    ASSERT_TRUE(from_store.ok()) << from_store.status().ToString();
    std::vector<std::string> a, b;
    for (const ProvenanceRecord& rec : *from_shards) {
      a.push_back(ByteView(EncodeRecord(rec)).ToString());
    }
    for (const ProvenanceRecord& rec : *from_store) {
      b.push_back(ByteView(EncodeRecord(rec)).ToString());
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "extraction of object " << id << " differs";
  }

  // (5) Recovery round-trip: the on-disk WALs rebuild the same store.
  auto recovered =
      ShardedProvenanceStore::Recover(Env::Default(), root, num_shards);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    std::vector<const ProvenanceRecord*> a = sharded.ChainRecords(id);
    std::vector<const ProvenanceRecord*> b = recovered->ChainRecords(id);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*a[i]), EncodeRecord(*b[i]));
    }
  }
  VerificationReport rec_verify =
      recovered->VerifyChains(builder.registry(), builder.algorithm());
  EXPECT_TRUE(rec_verify.ok()) << rec_verify.ToString();
}

TEST(IngestDifferentialTest, RandomWorkloadsAgreeAtEveryShardCount) {
  const uint64_t seeds[] = {0xD1FF0001u, 0xD1FF0002u, 0xD1FF0003u};
  const size_t shard_counts[] = {1, 2, 8};
  for (uint64_t seed : seeds) {
    for (size_t shards : shard_counts) {
      RunDifferential(seed, shards);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IngestDifferentialTest, SyncEveryRecordModeAlsoAgrees) {
  // The baseline write path (fsync per record) must produce the same
  // bytes as group commit — durability cadence must never change what
  // gets signed.
  const uint64_t seed = 0xD1FFBEEF;
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 30;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, seed, wl).ok());

  IngestOptions options;
  options.num_shards = 2;
  options.sync_every_record = true;
  std::string root = ::testing::TempDir() + "/provdb_diff_synceach";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline =
      ReplayThroughPipeline(Env::Default(), root, builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  const ProvenanceStore& reference = builder.reference_store();
  EXPECT_EQ((*pipeline)->store().record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    std::vector<uint64_t> ref_chain = reference.ChainOf(id);
    std::vector<const ProvenanceRecord*> chain =
        (*pipeline)->store().ChainRecords(id);
    ASSERT_EQ(chain.size(), ref_chain.size());
    for (size_t i = 0; i < ref_chain.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*chain[i]),
                EncodeRecord(reference.record(ref_chain[i])));
    }
  }
}

}  // namespace
}  // namespace provdb::provenance
