// Regression pin for the epoch-based snapshot read path (DESIGN.md §16):
// on a quiesced store, everything read through a StoreSnapshot must be
// byte-identical to the direct (writer-current) read path, and a snapshot
// held across further ingest must keep returning its original batch
// prefix. Also unit-tests the COW ChainIndex the snapshots traverse.

#include "provenance/snapshot.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "provenance/auditor.h"
#include "provenance/chain_index.h"
#include "provenance/query.h"
#include "provenance/serialization.h"
#include "provenance/verifier.h"
#include "testing/differential.h"

namespace provdb::provenance {
namespace {

using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::ReplayThroughPipeline;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::ObjectId;

// ---------------------------------------------------------------------
// ChainIndex: the 16-way path-copying radix trie under every snapshot.
// ---------------------------------------------------------------------

TEST(ChainIndexTest, FindOnEmptyTrieIsNull) {
  EXPECT_EQ(ChainIndex::Find(nullptr, 42), nullptr);
}

TEST(ChainIndexTest, InsertThenFindManyKeys) {
  const ChainIndex::Node* root = nullptr;
  // Keys chosen to collide in low nibbles (0x10 apart) and to include
  // wide spreads, so both BuildSplit and deep descent are exercised.
  std::vector<ObjectId> keys;
  for (uint64_t i = 0; i < 300; ++i) {
    keys.push_back(i * 16 + (i % 3));
    keys.push_back(0xABCD000000000000ull + i);
  }
  for (ObjectId key : keys) {
    auto* leaf = new ChainIndex::Leaf;
    leaf->key = key;
    leaf->head = nullptr;
    root = ChainIndex::Insert(root, leaf, nullptr);
  }
  for (ObjectId key : keys) {
    const ChainIndex::Leaf* found = ChainIndex::Find(root, key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(found->key, key);
  }
  EXPECT_EQ(ChainIndex::Find(root, 0xFFFFFFFFFFFFFFFFull), nullptr);
  ChainIndex::FreeAll(root);
}

TEST(ChainIndexTest, SameKeyInsertReplacesTheLeaf) {
  const ChainIndex::Node* root = nullptr;
  auto* first = new ChainIndex::Leaf;
  first->key = 7;
  first->head = nullptr;
  root = ChainIndex::Insert(root, first, nullptr);

  auto* cell = new ChainNode;
  cell->record = nullptr;
  cell->index = 0;
  cell->prev = nullptr;
  cell->length = 1;
  auto* second = new ChainIndex::Leaf;
  second->key = 7;
  second->head = cell;
  // No domain: the replaced leaf is deleted immediately (covered by ASan).
  root = ChainIndex::Insert(root, second, nullptr);

  const ChainIndex::Leaf* found = ChainIndex::Find(root, 7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->head, cell);
  ChainIndex::FreeAll(root);
}

TEST(ChainIndexTest, ForEachLeafVisitsEveryKeyOnce) {
  const ChainIndex::Node* root = nullptr;
  for (uint64_t key = 100; key < 164; ++key) {
    auto* leaf = new ChainIndex::Leaf;
    leaf->key = key;
    leaf->head = nullptr;
    root = ChainIndex::Insert(root, leaf, nullptr);
  }
  std::map<ObjectId, int> seen;
  ChainIndex::ForEachLeaf(root,
                          [&](const ChainIndex::Leaf& leaf) {
                            ++seen[leaf.key];
                          });
  EXPECT_EQ(seen.size(), 64u);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "key " << key;
    EXPECT_GE(key, 100u);
    EXPECT_LT(key, 164u);
  }
  ChainIndex::FreeAll(root);
}

// ---------------------------------------------------------------------
// Snapshot reads vs the direct path, on a quiesced store.
// ---------------------------------------------------------------------

struct QuiescedFixture {
  IngestWorkloadBuilder builder;
  std::unique_ptr<IngestPipeline> pipeline;

  // In-place init (the builder is neither copyable nor movable).
  void Build(uint64_t seed, size_t num_shards) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Status s = RandomDifferentialWorkload(&builder, seed);
    ASSERT_TRUE(s.ok()) << s.ToString();
    IngestOptions options;
    options.num_shards = num_shards;
    options.max_batch_records = 5;
    std::string root = ::testing::TempDir() + "/provdb_snap_" +
                       std::to_string(seed) + "_" +
                       std::to_string(num_shards);
    ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
    auto replayed = ReplayThroughPipeline(Env::Default(), root,
                                          builder.requests(), options);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    pipeline = std::move(*replayed);
  }
};

TEST(StoreSnapshotTest, SnapshotReadsMatchDirectReadsByteForByte) {
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    QuiescedFixture fx;
    fx.Build(0x5A4B0001u, num_shards);
    if (::testing::Test::HasFatalFailure()) return;
    const ShardedProvenanceStore& store = fx.pipeline->store();
    StoreSnapshot snapshot = fx.pipeline->OpenSnapshot();

    EXPECT_EQ(snapshot.num_shards(), num_shards);
    EXPECT_GT(snapshot.epoch(), 0u);
    EXPECT_EQ(snapshot.record_count(), store.record_count());
    EXPECT_EQ(snapshot.live_record_count(), store.live_record_count());

    // Chain maps: identical keys and byte-identical records.
    auto direct = store.AllChains();
    auto snapped = snapshot.AllChains();
    ASSERT_EQ(snapped.size(), direct.size());
    for (const auto& [object, chain] : direct) {
      SCOPED_TRACE("object " + std::to_string(object));
      auto it = snapped.find(object);
      ASSERT_NE(it, snapped.end());
      ASSERT_EQ(it->second.size(), chain.size());
      for (size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(EncodeRecord(*it->second[i]), EncodeRecord(*chain[i]));
      }
    }

    // Per-object chain lookups agree, including unknown objects.
    for (ObjectId id : fx.builder.tracked_objects()) {
      EXPECT_EQ(snapshot.ChainRecords(id).size(),
                store.ChainRecords(id).size());
    }
    EXPECT_TRUE(snapshot.ChainRecords(0xFFFFFFFFull).empty());

    // Extraction closure agrees with the sequential reference store's,
    // in the canonical (object id, seqID) order.
    const StoreSnapshot reference =
        fx.builder.reference_store().QuiescentSnapshot();
    for (ObjectId id : fx.builder.tracked_objects()) {
      SCOPED_TRACE("extract object " + std::to_string(id));
      auto from_snapshot = snapshot.ExtractProvenance(id);
      auto from_reference = reference.ExtractProvenance(id);
      ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status().ToString();
      ASSERT_TRUE(from_reference.ok()) << from_reference.status().ToString();
      ASSERT_EQ(from_snapshot->size(), from_reference->size());
      for (size_t i = 0; i < from_snapshot->size(); ++i) {
        EXPECT_EQ(EncodeRecord((*from_snapshot)[i]),
                  EncodeRecord((*from_reference)[i]));
      }
    }
  }
}

TEST(StoreSnapshotTest, VerifierAndAuditorAgreeOnSnapshotAndStore) {
  QuiescedFixture fx;
  fx.Build(0x5A4B0002u, 2);
  if (::testing::Test::HasFatalFailure()) return;
  const ShardedProvenanceStore& store = fx.pipeline->store();
  StoreSnapshot snapshot = fx.pipeline->OpenSnapshot();

  ProvenanceVerifier verifier(&fx.builder.registry(),
                              fx.builder.algorithm());
  VerificationReport via_snapshot = verifier.VerifyStore(snapshot);
  VerificationReport via_store =
      store.VerifyChains(fx.builder.registry(), fx.builder.algorithm());
  EXPECT_TRUE(via_snapshot.ok()) << via_snapshot.ToString();
  EXPECT_EQ(via_snapshot.ToString(), via_store.ToString());

  StoreAuditor auditor(&fx.builder.registry(), fx.builder.algorithm());
  VerificationReport audit_snapshot = auditor.Audit(snapshot,
                                                    fx.builder.tree());
  VerificationReport audit_store = auditor.Audit(
      fx.builder.reference_store().QuiescentSnapshot(), fx.builder.tree());
  EXPECT_TRUE(audit_snapshot.ok()) << audit_snapshot.ToString();
  EXPECT_EQ(audit_snapshot.ToString(), audit_store.ToString());
}

TEST(StoreSnapshotTest, QueryOverloadsAgreeOnSnapshotAndStore) {
  QuiescedFixture fx;
  fx.Build(0x5A4B0003u, 2);
  if (::testing::Test::HasFatalFailure()) return;
  StoreSnapshot snapshot = fx.pipeline->OpenSnapshot();
  // The sequential reference store, read through its quiescent snapshot.
  const StoreSnapshot reference =
      fx.builder.reference_store().QuiescentSnapshot();

  for (ObjectId id : fx.builder.tracked_objects()) {
    SCOPED_TRACE("object " + std::to_string(id));
    auto sum_snapshot = SummarizeLineage(snapshot, id);
    auto sum_store = SummarizeLineage(reference, id);
    ASSERT_TRUE(sum_snapshot.ok()) << sum_snapshot.status().ToString();
    ASSERT_TRUE(sum_store.ok()) << sum_store.status().ToString();
    EXPECT_EQ(sum_snapshot->ToString(), sum_store->ToString());

    auto slice_snapshot = HistorySlice(snapshot, id, 0, 1000);
    auto slice_store = HistorySlice(reference, id, 0, 1000);
    ASSERT_TRUE(slice_snapshot.ok());
    ASSERT_TRUE(slice_store.ok());
    ASSERT_EQ(slice_snapshot->size(), slice_store->size());
    for (size_t i = 0; i < slice_snapshot->size(); ++i) {
      EXPECT_EQ(EncodeRecord((*slice_snapshot)[i]),
                EncodeRecord((*slice_store)[i]));
    }

    auto sources_snapshot = DirectSources(snapshot, id);
    auto sources_store = DirectSources(reference, id);
    ASSERT_TRUE(sources_snapshot.ok());
    ASSERT_TRUE(sources_store.ok());
    EXPECT_EQ(sources_snapshot->size(), sources_store->size());
  }

  // Participant queries: both sides return records in ascending
  // (object, seq) order.
  for (size_t p = 0; p < provdb::testing::TestPki::kNumParticipants; ++p) {
    const crypto::ParticipantId participant = p + 1;  // 1-based test ids
    std::vector<const ProvenanceRecord*> via_snapshot =
        RecordsByParticipant(snapshot, participant);
    std::vector<const ProvenanceRecord*> via_store =
        RecordsByParticipant(reference, participant);
    ASSERT_EQ(via_snapshot.size(), via_store.size());
    for (size_t i = 0; i < via_snapshot.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*via_snapshot[i]), EncodeRecord(*via_store[i]));
    }
  }
}

// ---------------------------------------------------------------------
// Prefix stability: a held snapshot is immune to later ingest, and new
// snapshots only ever observe whole durable batches.
// ---------------------------------------------------------------------

TEST(StoreSnapshotTest, HeldSnapshotKeepsItsPrefixAcrossFurtherIngest) {
  IngestWorkloadBuilder builder;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0x5A4B0004u).ok());
  const auto& requests = builder.requests();
  ASSERT_GT(requests.size(), 20u);

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 4;
  std::string root = ::testing::TempDir() + "/provdb_snap_prefix";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  const size_t half = requests.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*pipeline)->Submit(requests[i]).ok());
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());

  StoreSnapshot held = (*pipeline)->OpenSnapshot();
  const uint64_t count_at_cut = held.record_count();
  EXPECT_EQ(count_at_cut, half);
  auto chains_at_cut = held.AllChains();

  for (size_t i = half; i < requests.size(); ++i) {
    ASSERT_TRUE((*pipeline)->Submit(requests[i]).ok());
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());

  // The held snapshot still reads its original cut, byte for byte.
  EXPECT_EQ(held.record_count(), count_at_cut);
  auto chains_after = held.AllChains();
  ASSERT_EQ(chains_after.size(), chains_at_cut.size());
  for (const auto& [object, chain] : chains_at_cut) {
    auto it = chains_after.find(object);
    ASSERT_NE(it, chains_after.end());
    ASSERT_EQ(it->second.size(), chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*it->second[i]), EncodeRecord(*chain[i]));
    }
  }

  // A fresh snapshot sees the full drained state.
  StoreSnapshot fresh = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(fresh.record_count(), requests.size());
  EXPECT_GE(fresh.epoch(), held.epoch());
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(StoreSnapshotTest, SnapshotObservesOnlyWholeBatches) {
  IngestWorkloadBuilder builder;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0x5A4B0005u).ok());
  const auto& requests = builder.requests();
  ASSERT_GT(requests.size(), 10u);

  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 5;
  std::string root = ::testing::TempDir() + "/provdb_snap_batch";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // Submit 7: the first 5 flush as a batch, 2 stay pending. A snapshot
  // must see exactly the durable batch — never the half-submitted tail.
  for (size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE((*pipeline)->Submit(requests[i]).ok());
  }
  StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), 5u);
  ASSERT_TRUE((*pipeline)->Drain().ok());
  EXPECT_EQ(snapshot.record_count(), 5u);  // the cut is immutable
  EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), 7u);
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// A store that never attached a domain (standalone, recovered, tests)
// exposes the same data through CurrentView under quiescence.
TEST(StoreSnapshotTest, CurrentViewOnDomainlessStoreReadsWriterState) {
  IngestWorkloadBuilder builder;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0x5A4B0006u).ok());
  const ProvenanceStore& reference = builder.reference_store();
  StoreReadView view = reference.CurrentView();
  EXPECT_EQ(view.record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    std::vector<const ProvenanceRecord*> via_view = view.ChainRecords(id);
    std::vector<uint64_t> via_store = reference.ChainOf(id);
    ASSERT_EQ(via_view.size(), via_store.size());
    for (size_t i = 0; i < via_view.size(); ++i) {
      EXPECT_EQ(EncodeRecord(*via_view[i]),
                EncodeRecord(reference.record(via_store[i])));
    }
  }
}

}  // namespace
}  // namespace provdb::provenance
