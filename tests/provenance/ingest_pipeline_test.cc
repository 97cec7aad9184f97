// Unit tests for the sharded batched ingest pipeline: request signing
// semantics, shard routing, group-commit batching, write-ahead ordering
// under fault injection, reopen/recovery, and sequential-vs-parallel
// signing equivalence.

#include "provenance/ingest_pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/hashmix.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "observability/trace.h"
#include "provenance/checkpoint.h"
#include "provenance/serialization.h"
#include "storage/fault_injection_env.h"
#include "testing/gated_env.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::GatedEnv;
using provdb::testing::TestPki;
using storage::Env;
using storage::FaultInjectionEnv;
using storage::ObjectId;

const crypto::Participant& P(size_t i) {
  return TestPki::Instance().participant(i);
}

crypto::Digest D(uint8_t tag) {
  Bytes b(20, tag);
  return crypto::Digest::FromBytes(ByteView(b.data(), b.size()));
}

std::string FreshDir(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_ingest_" + tag;
  // Shard directories survive across runs; start from scratch.
  auto shards = Env::Default()->ListDir(root);
  if (shards.ok()) {
    for (const std::string& shard : *shards) {
      auto files = Env::Default()->ListDir(root + "/" + shard);
      if (!files.ok()) continue;
      for (const std::string& f : *files) {
        EXPECT_TRUE(
            Env::Default()->RemoveFile(root + "/" + shard + "/" + f).ok());
      }
    }
  }
  return root;
}

IngestRequest Insert(ObjectId id, uint8_t tag, size_t p = 0) {
  IngestRequest r;
  r.op = OperationType::kInsert;
  r.object = id;
  r.post_hash = D(tag);
  r.participant = &P(p);
  return r;
}

IngestRequest Update(ObjectId id, uint8_t pre, uint8_t post, size_t p = 0) {
  IngestRequest r;
  r.op = OperationType::kUpdate;
  r.object = id;
  r.has_pre_hash = true;
  r.pre_hash = D(pre);
  r.post_hash = D(post);
  r.participant = &P(p);
  return r;
}

// ---------------------------------------------------------------------------
// BuildSignedIngestRecord
// ---------------------------------------------------------------------------

TEST(BuildSignedIngestRecordTest, InsertStartsChainAtZero) {
  ChecksumEngine engine;
  auto rec = BuildSignedIngestRecord(engine, {}, Insert(7, 0xA1));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->seq_id, 0u);
  EXPECT_EQ(rec->op, OperationType::kInsert);
  EXPECT_TRUE(rec->inputs.empty());
  EXPECT_FALSE(rec->checksum.empty());
}

TEST(BuildSignedIngestRecordTest, InsertIntoExistingChainRejected) {
  ChecksumEngine engine;
  LocalChainState::Tail tail{0, Bytes{1, 2, 3}, true};
  EXPECT_EQ(BuildSignedIngestRecord(engine, tail, Insert(7, 0xA1))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(BuildSignedIngestRecordTest, UpdateContinuesAndBootstraps) {
  ChecksumEngine engine;
  // Bootstrap: no chain yet -> seq 0.
  auto first = BuildSignedIngestRecord(engine, {}, Update(7, 0xA1, 0xA2));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->seq_id, 0u);
  ASSERT_EQ(first->inputs.size(), 1u);
  EXPECT_EQ(first->inputs[0].object_id, 7u);
  // Continuation: tail at seq 4 -> seq 5.
  LocalChainState::Tail tail{4, first->checksum, true};
  auto next = BuildSignedIngestRecord(engine, tail, Update(7, 0xA2, 0xA3));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->seq_id, 5u);
}

TEST(BuildSignedIngestRecordTest, AggregateValidatesInputs) {
  ChecksumEngine engine;
  IngestRequest agg;
  agg.op = OperationType::kAggregate;
  agg.object = 9;
  agg.post_hash = D(0xC1);
  agg.participant = &P(0);
  agg.inputs = {ObjectState{3, D(0x31)}, ObjectState{2, D(0x21)}};
  agg.input_prev_checksums = {Bytes{}, Bytes{}};
  agg.aggregate_seq = 1;
  // Descending inputs violate the global total order.
  EXPECT_EQ(BuildSignedIngestRecord(engine, {}, agg).status().code(),
            StatusCode::kInvalidArgument);
  std::swap(agg.inputs[0], agg.inputs[1]);
  auto rec = BuildSignedIngestRecord(engine, {}, agg);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->seq_id, 1u);
  EXPECT_EQ(rec->inputs.size(), 2u);
}

TEST(BuildSignedIngestRecordTest, NonAggregateWithInputsRejected) {
  ChecksumEngine engine;
  IngestRequest bad = Insert(7, 0xA1);
  bad.inputs.push_back(ObjectState{1, D(0x11)});
  EXPECT_EQ(BuildSignedIngestRecord(engine, {}, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ShardedProvenanceStore
// ---------------------------------------------------------------------------

TEST(ShardedProvenanceStoreTest, ShardOfIsStableAndInRange) {
  for (ObjectId id = 1; id <= 200; ++id) {
    size_t s = ShardedProvenanceStore::ShardOf(id, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, ShardedProvenanceStore::ShardOf(id, 4)) << id;
  }
  // One shard degenerates to everything-in-shard-0.
  EXPECT_EQ(ShardedProvenanceStore::ShardOf(12345, 1), 0u);
}

TEST(ShardedProvenanceStoreTest, ShardDirNamesAreZeroPadded) {
  EXPECT_EQ(ShardedProvenanceStore::ShardDirName("/w", 0), "/w/shard-000");
  EXPECT_EQ(ShardedProvenanceStore::ShardDirName("/w", 12), "/w/shard-012");
}

// ---------------------------------------------------------------------------
// IngestPipeline
// ---------------------------------------------------------------------------

TEST(IngestPipelineTest, RoutesObjectsToTheirShardAndVerifies) {
  std::string root = FreshDir("route");
  IngestOptions options;
  options.num_shards = 4;
  options.max_batch_records = 8;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  std::vector<ObjectId> ids = {11, 12, 13, 14, 15, 16};
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(
        (*pipeline)->Submit(Insert(ids[i], static_cast<uint8_t>(i))).ok());
    ASSERT_TRUE((*pipeline)
                    ->Submit(Update(ids[i], static_cast<uint8_t>(i),
                                    static_cast<uint8_t>(i + 100)))
                    .ok());
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());
  EXPECT_EQ((*pipeline)->committed(), ids.size() * 2);

  const ShardedProvenanceStore& store = (*pipeline)->store();
  EXPECT_EQ(store.record_count(), ids.size() * 2);
  for (ObjectId id : ids) {
    size_t s = ShardedProvenanceStore::ShardOf(id, 4);
    EXPECT_EQ(store.shard(s).ChainOf(id).size(), 2u);
    EXPECT_EQ(store.ChainRecords(id).size(), 2u);
  }
  auto report = store.VerifyChains(TestPki::Instance().registry());
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(IngestPipelineTest, GroupCommitDefersDurabilityAndCommitUntilFlush) {
  std::string root = FreshDir("batch");
  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 4;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok());

  // Three submits: below the batch threshold, so nothing is committed
  // (write-ahead: commit only after the batch's fsync).
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  ASSERT_TRUE((*pipeline)->Submit(Insert(2, 0x02)).ok());
  ASSERT_TRUE((*pipeline)->Submit(Insert(3, 0x03)).ok());
  EXPECT_EQ((*pipeline)->store().record_count(), 0u);
  EXPECT_EQ((*pipeline)->shard_wal(0)->appended_records(), 0u);

  // The fourth submit fills the batch: one flush, one durability point.
  uint64_t syncs_before = (*pipeline)->shard_wal(0)->synced_records();
  ASSERT_TRUE((*pipeline)->Submit(Insert(4, 0x04)).ok());
  EXPECT_EQ((*pipeline)->store().record_count(), 4u);
  EXPECT_EQ((*pipeline)->shard_wal(0)->synced_records(), syncs_before + 4);
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(IngestPipelineTest, SyncEveryRecordCommitsImmediately) {
  std::string root = FreshDir("synceach");
  IngestOptions options;
  options.num_shards = 1;
  options.sync_every_record = true;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  EXPECT_EQ((*pipeline)->store().record_count(), 1u);
  EXPECT_EQ((*pipeline)->shard_wal(0)->synced_records(), 1u);
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(IngestPipelineTest, ReopenContinuesChainsFromRecoveredTails) {
  std::string root = FreshDir("reopen");
  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 3;
  {
    auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE((*pipeline)->Submit(Insert(21, 0x01)).ok());
    ASSERT_TRUE((*pipeline)->Submit(Insert(22, 0x02)).ok());
    ASSERT_TRUE((*pipeline)->Close().ok());
  }
  {
    std::vector<storage::WalRecoveryReport> reports;
    auto pipeline =
        IngestPipeline::Open(Env::Default(), root, options, &reports);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    EXPECT_EQ(reports.size(), 2u);
    EXPECT_EQ((*pipeline)->store().record_count(), 2u);
    // Chain continuation across restart: the update must get seq 1 and
    // link against the recovered checksum.
    ASSERT_TRUE((*pipeline)->Submit(Update(21, 0x01, 0x11)).ok());
    ASSERT_TRUE((*pipeline)->Submit(Update(22, 0x02, 0x12)).ok());
    ASSERT_TRUE((*pipeline)->Close().ok());
    auto report =
        (*pipeline)->store().VerifyChains(TestPki::Instance().registry());
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  auto recovered =
      ShardedProvenanceStore::Recover(Env::Default(), root, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->record_count(), 4u);
  EXPECT_EQ(recovered->ChainRecords(21).back()->seq_id, 1u);
  auto report = recovered->VerifyChains(TestPki::Instance().registry());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(IngestPipelineTest, SnapshotFeedsSequentialMachinery) {
  std::string root = FreshDir("merge");
  IngestOptions options;
  options.num_shards = 3;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok());
  for (ObjectId id = 31; id <= 36; ++id) {
    ASSERT_TRUE(
        (*pipeline)->Submit(Insert(id, static_cast<uint8_t>(id))).ok());
  }
  ASSERT_TRUE((*pipeline)->Close().ok());
  // The cross-shard snapshot is what extraction and the auditor read.
  StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), 6u);
  for (ObjectId id = 31; id <= 36; ++id) {
    EXPECT_EQ(snapshot.ChainRecords(id).size(), 1u);
    auto extracted = snapshot.ExtractProvenance(id);
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    EXPECT_EQ(extracted->size(), 1u);
  }
}

TEST(IngestPipelineTest, FlushErrorPoisonsThePipeline) {
  std::string root = FreshDir("poison");
  FaultInjectionEnv env(Env::Default());
  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 2;
  auto pipeline = IngestPipeline::Open(&env, root, options);
  ASSERT_TRUE(pipeline.ok());

  // Fail the batch's fsync. The flush errors, nothing is committed, and
  // the pipeline stays poisoned with the same status.
  env.ScheduleSyncFailure(1);
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  Status flush = (*pipeline)->Submit(Insert(2, 0x02));
  EXPECT_FALSE(flush.ok());
  EXPECT_EQ((*pipeline)->store().record_count(), 0u);
  env.ClearFaults();
  Status later = (*pipeline)->Submit(Insert(3, 0x03));
  EXPECT_FALSE(later.ok());
  EXPECT_EQ(later.code(), flush.code());
  EXPECT_EQ((*pipeline)->Drain().code(), flush.code());
}

TEST(IngestPipelineTest, SubmitValidatesAggregateShape) {
  std::string root = FreshDir("validate");
  auto pipeline = IngestPipeline::Open(Env::Default(), root, IngestOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestRequest bad;
  bad.op = OperationType::kAggregate;
  bad.object = 5;
  bad.post_hash = D(0x55);
  bad.participant = &P(0);
  EXPECT_EQ((*pipeline)->Submit(bad).code(), StatusCode::kInvalidArgument);
  bad.inputs = {ObjectState{1, D(0x11)}};
  EXPECT_EQ((*pipeline)->Submit(bad).code(), StatusCode::kInvalidArgument);
  // Validation failures do not poison the pipeline.
  EXPECT_TRUE((*pipeline)->Submit(Insert(6, 0x06)).ok());
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// Parallel signing must be bit-identical to sequential signing: RSA
// signing is deterministic and chain groups sign in seqID order
// regardless of which worker runs them. (Also the TSan target for the
// ingest pipeline's concurrency.)
TEST(IngestPipelineParallelTest, ParallelSigningMatchesSequential) {
  std::vector<IngestRequest> requests;
  for (ObjectId id = 41; id <= 48; ++id) {
    requests.push_back(Insert(id, static_cast<uint8_t>(id),
                              static_cast<size_t>(id % 4)));
    requests.push_back(Update(id, static_cast<uint8_t>(id),
                              static_cast<uint8_t>(id + 100),
                              static_cast<size_t>((id + 1) % 4)));
  }

  auto run = [&](int threads, const std::string& tag) {
    std::string root = FreshDir("par_" + tag);
    IngestOptions options;
    options.num_shards = 2;
    options.max_batch_records = 16;
    options.signing.num_threads = threads;
    auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_TRUE((*pipeline)->Submit(requests[i]).ok());
    }
    EXPECT_TRUE((*pipeline)->Close().ok());
    std::vector<Bytes> encoded;
    for (ObjectId id = 41; id <= 48; ++id) {
      for (const ProvenanceRecord* rec : (*pipeline)->store().ChainRecords(id)) {
        encoded.push_back(EncodeRecord(*rec));
      }
    }
    return encoded;
  };

  std::vector<Bytes> sequential = run(1, "seq");
  std::vector<Bytes> parallel = run(4, "par");
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], parallel[i]) << "record " << i << " differs";
  }
}

// ---------------------------------------------------------------------------
// Parallel shard recovery
// ---------------------------------------------------------------------------

/// Fills a checkpointing store under `root`: 48 inserts, a seal of every
/// shard, then 24 updates, so each shard recovers from a sealed
/// checkpoint plus a WAL suffix.
void PopulateCheckpointedStore(const std::string& root, size_t shards,
                               const crypto::SignatureVerifier* verifier) {
  IngestOptions options;
  options.num_shards = shards;
  options.max_batch_records = 4;
  options.checkpoint.signer = &P(0).signer();
  options.checkpoint.sealer_id = P(0).id();
  options.checkpoint.verifier = verifier;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (ObjectId id = 1; id <= 48; ++id) {
    ASSERT_TRUE((*pipeline)
                    ->Submit(Insert(id, static_cast<uint8_t>(id),
                                    static_cast<size_t>(id % 4)))
                    .ok());
  }
  ASSERT_TRUE((*pipeline)->CheckpointNow().ok());
  for (ObjectId id = 1; id <= 48; id += 2) {
    ASSERT_TRUE((*pipeline)
                    ->Submit(Update(id, static_cast<uint8_t>(id),
                                    static_cast<uint8_t>(id + 100)))
                    .ok());
  }
  ASSERT_TRUE((*pipeline)->Close().ok());
}

std::string RenderReport(const storage::WalRecoveryReport& r) {
  return std::to_string(r.segments) + "/" + std::to_string(r.records) + "/" +
         std::to_string(r.dropped_bytes) + "/" +
         std::to_string(r.salvaged_segment) + "/" + r.detail + "/" +
         std::to_string(r.checkpoint_horizon) + "/" +
         std::to_string(r.checkpoint_records);
}

/// What recovery produced, shard by shard, in comparable form: every
/// chain's EncodeRecord bytes (ascending object id), the salvage report,
/// and the SHA-1 of a checkpoint resealed from the shard.
struct RecoveredImage {
  std::vector<std::map<ObjectId, std::vector<Bytes>>> chains;
  std::vector<std::string> reports;
  std::vector<crypto::Digest> reseals;
  uint64_t records = 0;
};

RecoveredImage ImageOf(const ShardedProvenanceStore& store,
                       const std::vector<storage::WalRecoveryReport>& reports,
                       const std::string& reseal_dir) {
  RecoveredImage image;
  EXPECT_TRUE(Env::Default()->CreateDir(reseal_dir).ok());
  for (size_t i = 0; i < store.num_shards(); ++i) {
    const StoreReadView view = store.shard(i).CurrentView();
    std::map<ObjectId, std::vector<Bytes>> chains;
    view.ForEachChain([&](ObjectId id, const ChainNode*) {
      for (const ProvenanceRecord* rec : view.ChainRecords(id)) {
        chains[id].push_back(EncodeRecord(*rec));
        ++image.records;
      }
    });
    image.chains.push_back(std::move(chains));
    EXPECT_TRUE(CheckpointWriter::Write(Env::Default(), reseal_dir, view,
                                        /*wal_horizon=*/i + 1, P(0).signer(),
                                        P(0).id())
                    .ok());
    auto sealed = Env::Default()->ReadFileToBytes(
        CheckpointFileName(reseal_dir, i + 1));
    EXPECT_TRUE(sealed.ok());
    image.reseals.push_back(
        crypto::HashBytes(crypto::HashAlgorithm::kSha1, sealed.value()));
  }
  for (const storage::WalRecoveryReport& report : reports) {
    image.reports.push_back(RenderReport(report));
  }
  return image;
}

void ExpectSameImage(const RecoveredImage& expected,
                     const RecoveredImage& actual, const std::string& what) {
  EXPECT_EQ(expected.records, actual.records) << what;
  ASSERT_EQ(expected.chains.size(), actual.chains.size()) << what;
  for (size_t i = 0; i < expected.chains.size(); ++i) {
    EXPECT_TRUE(expected.chains[i] == actual.chains[i])
        << what << ": shard " << i << " chains differ";
    EXPECT_EQ(expected.reseals[i], actual.reseals[i])
        << what << ": shard " << i << " reseals differently";
  }
  EXPECT_EQ(expected.reports, actual.reports) << what;
}

// Recovery on a pool — directly, and through IngestPipeline::Open with a
// signing pool — rebuilds byte-for-byte the store, reports and reseal of
// a sequential recovery. The shard tasks share a FaultInjectionEnv, the
// metrics registry and an enabled trace sink, which is what the TSan
// stage watches.
TEST(ParallelRecoveryTest, PoolRecoveryMatchesSequentialAtEveryShardCount) {
  crypto::RsaSignatureVerifier verifier(P(0).public_key());
  ThreadPool pool(4);
  for (size_t shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string tag = "parallel_recovery_" + std::to_string(shards);
    const std::string root = FreshDir(tag);
    PopulateCheckpointedStore(root, shards, &verifier);
    FaultInjectionEnv fault(Env::Default());

    std::vector<storage::WalRecoveryReport> seq_reports;
    auto sequential = ShardedProvenanceStore::Recover(
        &fault, root, shards, &seq_reports, &verifier);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    const RecoveredImage expected =
        ImageOf(*sequential, seq_reports, FreshDir(tag + "_reseal_seq"));
    EXPECT_EQ(expected.records, 48u + 24u);
    for (const storage::WalRecoveryReport& report : seq_reports) {
      EXPECT_GT(report.checkpoint_horizon, 0u) << "every shard sealed";
    }

    ASSERT_TRUE(observability::TraceSink::Enable(::testing::TempDir() +
                                                 "/provdb_" + tag + ".jsonl"));
    std::vector<storage::WalRecoveryReport> pool_reports;
    auto parallel = ShardedProvenanceStore::Recover(
        &fault, root, shards, &pool_reports, &verifier, &pool);
    observability::TraceSink::Disable();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameImage(expected,
                    ImageOf(*parallel, pool_reports,
                            FreshDir(tag + "_reseal_pool")),
                    "pool recovery");

    IngestOptions options;
    options.num_shards = shards;
    options.signing.num_threads = 4;
    options.checkpoint.verifier = &verifier;
    std::vector<storage::WalRecoveryReport> open_reports;
    auto reopened = IngestPipeline::Open(&fault, root, options, &open_reports);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectSameImage(expected,
                    ImageOf((*reopened)->store(), open_reports,
                            FreshDir(tag + "_reseal_open")),
                    "IngestPipeline::Open");
    ASSERT_TRUE((*reopened)->Close().ok());
  }
}

// With two shards' checkpoints corrupt, the error always names the lower
// one, however the pool's tasks interleave, and the reports stop just
// before it — as a sequential recovery reports.
TEST(ParallelRecoveryTest, LowestCorruptShardNamesTheError) {
  crypto::RsaSignatureVerifier verifier(P(0).public_key());
  const std::string root = FreshDir("parallel_recovery_corrupt");
  PopulateCheckpointedStore(root, 4, &verifier);
  for (size_t shard : {1, 3}) {
    const std::string dir = ShardedProvenanceStore::ShardDirName(root, shard);
    auto horizon = LatestCheckpointHorizon(Env::Default(), dir);
    ASSERT_TRUE(horizon.ok()) << horizon.status().ToString();
    const std::string path = CheckpointFileName(dir, *horizon);
    auto content = Env::Default()->ReadFileToBytes(path);
    ASSERT_TRUE(content.ok());
    (*content)[content->size() / 2] ^= 0xFF;
    auto file = Env::Default()->NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(*content).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  const std::string shard1 =
      ShardedProvenanceStore::ShardDirName(root, 1) + "/";

  std::vector<storage::WalRecoveryReport> seq_reports;
  auto sequential = ShardedProvenanceStore::Recover(
      Env::Default(), root, 4, &seq_reports, &verifier);
  ASSERT_FALSE(sequential.ok());
  EXPECT_EQ(sequential.status().code(), StatusCode::kCorruption);
  EXPECT_NE(sequential.status().message().find(shard1), std::string::npos)
      << sequential.status().ToString();
  ASSERT_EQ(seq_reports.size(), 1u);

  ThreadPool pool(4);
  for (int run = 0; run < 20; ++run) {
    std::vector<storage::WalRecoveryReport> reports;
    auto parallel = ShardedProvenanceStore::Recover(Env::Default(), root, 4,
                                                    &reports, &verifier, &pool);
    ASSERT_FALSE(parallel.ok()) << "run " << run;
    EXPECT_EQ(parallel.status().ToString(), sequential.status().ToString())
        << "run " << run;
    ASSERT_EQ(reports.size(), 1u) << "run " << run;
    EXPECT_EQ(RenderReport(reports[0]), RenderReport(seq_reports[0]));
  }
}

// A checkpoint seal runs in the background; when it fails there, the
// pipeline is poisoned — the next Drain and Submit return the seal's
// status — while the batch whose flush triggered the seal stays durable
// and acked.
TEST(IngestPipelineTest, BackgroundSealFailurePoisonsButKeepsTheBatch) {
  std::string root = FreshDir("seal_failure");
  FaultInjectionEnv fault(Env::Default());
  GatedEnv gated(&fault, ".pvck.tmp");
  gated.Hold();
  crypto::RsaSignatureVerifier verifier(P(0).public_key());
  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 2;
  options.checkpoint.every_records = 2;
  options.checkpoint.signer = &P(0).signer();
  options.checkpoint.sealer_id = P(0).id();
  options.checkpoint.verifier = &verifier;
  auto pipeline = IngestPipeline::Open(&gated, root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // The second submit flushes the batch (acked) and starts a seal, which
  // the gate holds at its fsync; that fsync then fails.
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  ASSERT_TRUE((*pipeline)->Submit(Insert(2, 0x02)).ok());
  EXPECT_EQ((*pipeline)->committed(), 2u);
  gated.AwaitHeld(1);
  fault.ScheduleSyncFailure(1);
  gated.Release();

  // The failure surfaces once the worker has finished with it.
  Status drained = Status::OK();
  while ((drained = (*pipeline)->Drain()).ok()) {
    std::this_thread::yield();
  }
  EXPECT_EQ(drained.code(), StatusCode::kIoError);
  EXPECT_EQ((*pipeline)->Submit(Insert(3, 0x03)).code(), drained.code());
  EXPECT_EQ((*pipeline)->committed(), 2u);
  EXPECT_EQ((*pipeline)->Close().code(), drained.code());

  // The acked batch is durable: it survives the power cut.
  ASSERT_TRUE(fault.DropUnsyncedFileData().ok());
  auto recovered =
      ShardedProvenanceStore::Recover(&fault, root, 1, nullptr, &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->record_count(), 2u);
  auto report = recovered->VerifyChains(TestPki::Instance().registry());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Per-shard flush ownership: while one shard's fsync is stuck, producers
// on the other shard keep committing; a pipeline-wide lock would queue
// them all behind the stuck fsync.
TEST(IngestPipelineConcurrentTest, OtherShardsProgressWhileOneShardFsyncBlocks) {
  std::string root = FreshDir("stuck_shard");
  GatedEnv gated(Env::Default(),
                 ShardedProvenanceStore::ShardDirName(root, 0) + "/");
  IngestOptions options;
  options.num_shards = 2;
  options.sync_every_record = true;
  auto pipeline = IngestPipeline::Open(&gated, root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  std::vector<ObjectId> shard0;
  std::vector<ObjectId> shard1;
  for (ObjectId id = 2000; shard0.empty() || shard1.size() < 8; ++id) {
    (ShardedProvenanceStore::ShardOf(id, 2) == 0 ? shard0 : shard1)
        .push_back(id);
  }

  gated.Hold();
  ThreadPool producer(1);
  std::future<Status> stuck = producer.Submit([&pipeline, &shard0] {
    return (*pipeline)->Submit(Insert(shard0[0], 0x20));
  });
  gated.AwaitHeld(1);
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE((*pipeline)->Submit(Insert(shard1[i], 0x21)).ok());
  }
  EXPECT_EQ((*pipeline)->committed(), 8u);
  EXPECT_EQ(gated.held(), 1u) << "shard 0's fsync should still be stuck";

  gated.Release();
  EXPECT_TRUE(stuck.get().ok());
  EXPECT_EQ((*pipeline)->committed(), 9u);
  ASSERT_TRUE((*pipeline)->Close().ok());
  auto report =
      (*pipeline)->store().VerifyChains(TestPki::Instance().registry());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// The pipeline is thread-safe with per-shard flush ownership. Four
// producers hammer Submit from the pool at once;
// each owns a disjoint id range so per-object record order (Insert before
// Update) is program order within one producer, and the final store must
// contain every record and verify clean. ("Concurrent" in the name opts
// this test into the TSan CI stage's filter.)
TEST(IngestPipelineConcurrentTest, ConcurrentProducersSerializeSafely) {
  std::string root = FreshDir("concurrent");
  IngestOptions options;
  options.num_shards = 4;
  options.max_batch_records = 8;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  constexpr int kProducers = 4;
  constexpr ObjectId kPerProducer = 16;
  ThreadPool pool(kProducers);
  std::vector<std::future<Status>> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.push_back(pool.Submit([&pipeline, p]() -> Status {
      for (ObjectId i = 0; i < kPerProducer; ++i) {
        ObjectId id = 1000 + static_cast<ObjectId>(p) * kPerProducer + i;
        uint8_t tag = static_cast<uint8_t>(id);
        Status s = (*pipeline)->Submit(Insert(id, tag));
        if (!s.ok()) return s;
        s = (*pipeline)->Submit(
            Update(id, tag, static_cast<uint8_t>(tag + 100)));
        if (!s.ok()) return s;
      }
      return Status::OK();
    }));
  }
  for (auto& f : producers) EXPECT_TRUE(f.get().ok());

  ASSERT_TRUE((*pipeline)->Drain().ok());
  EXPECT_EQ((*pipeline)->committed(),
            static_cast<uint64_t>(kProducers) * kPerProducer * 2);
  const ShardedProvenanceStore& store = (*pipeline)->store();
  EXPECT_EQ(store.record_count(),
            static_cast<uint64_t>(kProducers) * kPerProducer * 2);
  auto report = store.VerifyChains(TestPki::Instance().registry());
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// Close racing producers: Submit checks for Close up front but buffers
// later, under the shard lock. Every Submit that returned OK must be in
// the closed store and on disk, and every one refused must have been
// refused because the pipeline closed — never buffered behind the last
// flush and silently dropped. Many short rounds vary where Close lands.
TEST(IngestPipelineConcurrentTest, ConcurrentSubmitAndCloseLoseNoAckedRecord) {
  // More producers than cores, so some are preempted mid-Submit when
  // Close runs.
  constexpr int kRounds = 12;
  constexpr int kProducers = 16;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    std::string root = FreshDir("submit_close");
    IngestOptions options;
    options.num_shards = 2;
    options.max_batch_records = 16;
    auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

    ThreadPool pool(kProducers);
    std::vector<std::future<std::vector<ObjectId>>> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.push_back(pool.Submit([&pipeline, p, round] {
        std::vector<ObjectId> acked;
        for (ObjectId i = 0;; ++i) {
          ObjectId id = 1 + static_cast<ObjectId>(round) * 1000000 +
                        static_cast<ObjectId>(p) * 100000 + i;
          Status s = (*pipeline)->Submit(Insert(id, 0x30));
          if (!s.ok()) {
            EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition)
                << s.ToString();
            break;
          }
          acked.push_back(id);
        }
        return acked;
      }));
    }
    while ((*pipeline)->committed() < 16u * (1 + round % 4)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE((*pipeline)->Close().ok());

    std::vector<ObjectId> acked;
    for (auto& f : producers) {
      std::vector<ObjectId> ids = f.get();
      acked.insert(acked.end(), ids.begin(), ids.end());
    }
    const ShardedProvenanceStore& store = (*pipeline)->store();
    EXPECT_EQ((*pipeline)->submitted(), acked.size());
    EXPECT_EQ((*pipeline)->committed(), acked.size());
    EXPECT_EQ(store.record_count(), acked.size());
    auto recovered = ShardedProvenanceStore::Recover(Env::Default(), root, 2);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->record_count(), acked.size());
    for (ObjectId id : acked) {
      ASSERT_EQ(store.ChainRecords(id).size(), 1u) << "object " << id;
      ASSERT_EQ(recovered->ChainRecords(id).size(), 1u) << "object " << id;
    }
  }
}

}  // namespace
}  // namespace provdb::provenance
