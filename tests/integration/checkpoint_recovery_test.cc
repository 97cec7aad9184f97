// Checkpoint + WAL-suffix recovery, end to end: bounded replay after a
// seal, compaction of covered segments, reopen-and-continue across
// checkpoints, and a fault-injection sweep that crashes the checkpointed
// ingest workload at every single mutating filesystem operation —
// including every write, sync, and rename of the checkpoint seal and
// every remove of segment GC.
//
// Invariants the sweep holds at every crash point: durable records are
// never lost, pruned history stays pruned, GC'd segments never come
// back, and a tampered or torn checkpoint is refused rather than
// half-loaded.

#include <gtest/gtest.h>

#include <array>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "observability/metrics.h"

#include "provenance/checkpoint.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "storage/fault_injection_env.h"
#include "storage/wal.h"
#include "testing/differential.h"
#include "testing/gated_env.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::DifferentialWorkloadOptions;
using provdb::testing::ForwardingEnv;
using provdb::testing::GatedEnv;
using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::ShardPrefixStore;
using provdb::testing::ShardRequestIndices;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::FaultInjectionEnv;
using storage::ObjectId;
using storage::Value;
using storage::WalRecoveryReport;
using storage::WalWriter;

const crypto::Participant& P(int i) {
  return TestPki::Instance().participant(static_cast<size_t>(i - 1));
}

crypto::RsaSignatureVerifier SealVerifier() {
  return crypto::RsaSignatureVerifier(P(1).public_key());
}

/// Empties `dir` of both flat WAL/checkpoint files (TrackedDatabase
/// layout) and shard-NNN subdirectories (ingest layout), so reruns never
/// recover a previous run's history.
std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/provdb_ckpt_recovery_" + tag;
  EXPECT_TRUE(WipeIngestRoot(Env::Default(), dir).ok());
  auto names = Env::Default()->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      if (name.rfind("shard-", 0) == 0) continue;
      EXPECT_TRUE(Env::Default()->RemoveFile(dir + "/" + name).ok());
    }
  }
  return dir;
}

// ---------------------------------------------------------------------------
// TrackedDatabase::CheckpointWal: bounded recovery and compaction.
// ---------------------------------------------------------------------------

TEST(CheckpointRecoveryTest, RecoveryReplaysOnlyTheSuffix) {
  std::string dir = FreshDir("suffix");
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());

  std::vector<ObjectId> docs;
  for (int i = 0; i < 12; ++i) {
    docs.push_back(db.Insert(P(1), Value::Int(i)).value());
  }
  ASSERT_TRUE(db.CheckpointWal(P(1).signer(), P(1).id()).ok());
  // The sealed history is compacted away: segment 1 must be gone.
  EXPECT_FALSE(Env::Default()->FileExists(WalWriter::SegmentFileName(dir, 1)));
  EXPECT_TRUE(Env::Default()->FileExists(CheckpointFileName(dir, 1)));

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Update(P(2), docs[static_cast<size_t>(i)],
                          Value::Int(100 + i))
                    .ok());
  }
  ASSERT_TRUE(db.SyncWal().ok());

  auto verifier = SealVerifier();
  WalRecoveryReport report;
  auto recovered = ProvenanceStore::RecoverFromWal(Env::Default(), dir,
                                                   &report, &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // O(delta): 12 records came from the checkpoint, only the 3-record
  // suffix was replayed from WAL frames.
  EXPECT_EQ(report.checkpoint_horizon, 1u);
  EXPECT_EQ(report.checkpoint_records, 12u);
  EXPECT_EQ(report.records, 3u);
  ASSERT_EQ(recovered->record_count(), 15u);
  // Record-for-record equality with the live store.
  for (uint64_t i = 0; i < recovered->record_count(); ++i) {
    EXPECT_EQ(EncodeRecord(recovered->record(i)),
              EncodeRecord(db.provenance().record(i)))
        << "record " << i;
  }
}

TEST(CheckpointRecoveryTest, CheckpointWithoutVerifierIsRefused) {
  std::string dir = FreshDir("no_verifier");
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());
  ASSERT_TRUE(db.Insert(P(1), Value::Int(1)).ok());
  ASSERT_TRUE(db.CheckpointWal(P(1).signer(), P(1).id()).ok());

  // Recovering *around* an unverifiable snapshot would silently drop its
  // history — refuse instead.
  auto recovered = ProvenanceStore::RecoverFromWal(Env::Default(), dir);
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointRecoveryTest, TamperedCheckpointIsRefusedAtRecovery) {
  std::string dir = FreshDir("tampered");
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());
  ASSERT_TRUE(db.Insert(P(1), Value::Int(1)).ok());
  ASSERT_TRUE(db.Insert(P(1), Value::Int(2)).ok());
  ASSERT_TRUE(db.CheckpointWal(P(1).signer(), P(1).id()).ok());

  const std::string path = CheckpointFileName(dir, 1);
  auto content = Env::Default()->ReadFileToBytes(path);
  ASSERT_TRUE(content.ok());
  (*content)[content->size() / 2] ^= 0x01;
  auto file = Env::Default()->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(*content).ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto verifier = SealVerifier();
  auto recovered = ProvenanceStore::RecoverFromWal(Env::Default(), dir,
                                                   nullptr, &verifier);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().code() == StatusCode::kCorruption ||
              recovered.status().code() == StatusCode::kVerificationFailed)
      << recovered.status().ToString();
}

TEST(CheckpointRecoveryTest, PrunedHistoryStaysPrunedAcrossCheckpoint) {
  std::string dir = FreshDir("pruned");
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());

  ObjectId keep = db.Insert(P(1), Value::Int(1)).value();
  ObjectId doomed = db.Insert(P(1), Value::Int(2)).value();
  ASSERT_TRUE(db.Update(P(2), doomed, Value::Int(3)).ok());
  ASSERT_TRUE(db.Delete(P(2), doomed).ok());
  ASSERT_TRUE(db.mutable_provenance()->PruneObject(doomed).ok());
  ASSERT_TRUE(db.CheckpointWal(P(1).signer(), P(1).id()).ok());
  ASSERT_TRUE(db.Update(P(2), keep, Value::Int(4)).ok());
  ASSERT_TRUE(db.SyncWal().ok());

  auto verifier = SealVerifier();
  auto recovered = ProvenanceStore::RecoverFromWal(Env::Default(), dir,
                                                   nullptr, &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->ChainOf(doomed).empty())
      << "checkpoint resurrection of pruned history";
  EXPECT_EQ(recovered->ChainOf(keep).size(), 2u);
}

TEST(CheckpointRecoveryTest, SecondCheckpointSupersedesTheFirst) {
  std::string dir = FreshDir("supersede");
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());

  ObjectId doc = db.Insert(P(1), Value::Int(1)).value();
  ASSERT_TRUE(db.CheckpointWal(P(1).signer(), P(1).id()).ok());
  // Nothing new: re-checkpointing is a no-op, not a fresh seal.
  ASSERT_TRUE(db.CheckpointWal(P(1).signer(), P(1).id()).ok());
  EXPECT_TRUE(Env::Default()->FileExists(CheckpointFileName(dir, 1)));

  ASSERT_TRUE(db.Update(P(2), doc, Value::Int(2)).ok());
  ASSERT_TRUE(db.CheckpointWal(P(1).signer(), P(1).id()).ok());
  // The old seal and every covered segment are gone; only the newest
  // checkpoint plus the fresh (empty) active segment remain.
  EXPECT_FALSE(Env::Default()->FileExists(CheckpointFileName(dir, 1)));
  auto latest = LatestCheckpointHorizon(Env::Default(), dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 2u);
  EXPECT_FALSE(Env::Default()->FileExists(WalWriter::SegmentFileName(dir, 1)));
  EXPECT_FALSE(Env::Default()->FileExists(WalWriter::SegmentFileName(dir, 2)));

  auto verifier = SealVerifier();
  WalRecoveryReport report;
  auto recovered = ProvenanceStore::RecoverFromWal(Env::Default(), dir,
                                                   &report, &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.checkpoint_horizon, 2u);
  EXPECT_EQ(recovered->record_count(), 2u);
}

// ---------------------------------------------------------------------------
// Crash sweep over TrackedDatabase::CheckpointWal — every mutating
// filesystem op of the seal (tmp write, sync, rename) and the GC
// (segment removes, dir syncs) fails in turn, then the power cut hits.
// ---------------------------------------------------------------------------

/// Phase A (never faulted): a base workload with a durable prune.
/// Returns the ids of the surviving object and the pruned one.
void RunCheckpointSweepBase(TrackedDatabase& db, ObjectId* keep,
                            ObjectId* doomed) {
  *keep = db.Insert(P(1), Value::Int(1)).value();
  *doomed = db.Insert(P(1), Value::Int(2)).value();
  ASSERT_TRUE(db.Update(P(2), *keep, Value::Int(3)).ok());
  ASSERT_TRUE(db.Delete(P(2), *doomed).ok());
  ASSERT_TRUE(db.mutable_provenance()->PruneObject(*doomed).ok());
  ASSERT_TRUE(db.SyncWal().ok());
}

/// Phase B (swept): checkpoint, more updates, second checkpoint.
Status RunCheckpointSweepPhaseB(TrackedDatabase& db, ObjectId keep) {
  PROVDB_RETURN_IF_ERROR(db.CheckpointWal(P(1).signer(), P(1).id()));
  PROVDB_RETURN_IF_ERROR(db.Update(P(2), keep, Value::Int(4)));
  PROVDB_RETURN_IF_ERROR(db.Update(P(1), keep, Value::Int(5)));
  PROVDB_RETURN_IF_ERROR(db.SyncWal());
  return db.CheckpointWal(P(1).signer(), P(1).id());
}

TEST(CheckpointCrashSweepTest, CrashAtEveryCheckpointAndGcOp) {
  // Dry run: count the mutating ops of phase B so the sweep covers every
  // one of them (checkpoint tmp append, file sync, rename, stale-seal
  // removes, segment removes, dir syncs — all of it).
  uint64_t phase_a_ops = 0;
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    std::string dir = FreshDir("sweep_dry");
    TrackedDatabase db;
    auto wal = WalWriter::Open(&env, dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(db.AttachWal(&*wal).ok());
    ObjectId keep = 0, doomed = 0;
    RunCheckpointSweepBase(db, &keep, &doomed);
    if (::testing::Test::HasFatalFailure()) return;
    phase_a_ops = env.mutating_ops();
    ASSERT_TRUE(RunCheckpointSweepPhaseB(db, keep).ok());
    total_ops = env.mutating_ops();
  }
  ASSERT_GT(total_ops, phase_a_ops + 10)
      << "phase B too small to be a sweep";

  for (uint64_t k = phase_a_ops + 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k));
    FaultInjectionEnv env(Env::Default());
    std::string dir = FreshDir("sweep_" + std::to_string(k));
    ObjectId keep = 0, doomed = 0;
    uint64_t live_at_crash = 0;
    {
      TrackedDatabase db;
      auto wal = WalWriter::Open(&env, dir);
      ASSERT_TRUE(wal.ok());
      ASSERT_TRUE(db.AttachWal(&*wal).ok());
      RunCheckpointSweepBase(db, &keep, &doomed);
      if (::testing::Test::HasFatalFailure()) return;
      env.ScheduleCrashAtOp(k - env.mutating_ops());
      // The workload stops at its first I/O error, like a real writer.
      RunCheckpointSweepPhaseB(db, keep).ok();
      live_at_crash = db.provenance().live_record_count();
      // Scope exit without Close(): the crash.
    }
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());

    auto verifier = SealVerifier();
    WalRecoveryReport report;
    auto recovered =
        ProvenanceStore::RecoverFromWal(&env, dir, &report, &verifier);
    ASSERT_TRUE(recovered.ok())
        << "crash point must salvage or report, never fail to recover: "
        << recovered.status().ToString();
    // Durable records are never lost: phase A (keep's insert + update
    // surviving the prune) was synced before the sweep window, and
    // everything the store committed was WAL'd write-ahead behind a sync
    // by the time a checkpoint touched it.
    EXPECT_GE(recovered->live_record_count(), 2u)
        << "phase A records lost at crash point " << k;
    EXPECT_LE(recovered->live_record_count(), live_at_crash);
    // Pruned history stays pruned — no checkpoint or replay path may
    // resurrect it.
    EXPECT_TRUE(recovered->ChainOf(doomed).empty());
    EXPECT_GE(recovered->ChainOf(keep).size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// IngestPipeline: periodic per-shard checkpoints, reopen-and-continue,
// and the full-workload crash sweep.
// ---------------------------------------------------------------------------

constexpr size_t kSweepShards = 2;

IngestOptions CheckpointedIngestOptions(
    const crypto::SignatureVerifier* verifier) {
  IngestOptions options;
  options.num_shards = kSweepShards;
  options.max_batch_records = 3;
  options.checkpoint.every_records = 4;
  options.checkpoint.signer = &P(1).signer();
  options.checkpoint.sealer_id = P(1).id();
  options.checkpoint.verifier = verifier;
  return options;
}

TEST(CheckpointedIngestTest, PeriodicCheckpointsCompactAndReopen) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 40;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B57u, wl).ok());
  const std::vector<IngestRequest>& requests = builder.requests();

  std::string root = FreshDir("periodic");
  std::array<uint64_t, kSweepShards> counts{};
  {
    auto pipeline = IngestPipeline::Open(Env::Default(), root,
                                         CheckpointedIngestOptions(&verifier));
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (const IngestRequest& request : requests) {
      ASSERT_TRUE((*pipeline)->Submit(request).ok());
    }
    ASSERT_TRUE((*pipeline)->Drain().ok());
    uint64_t total_checkpoints = 0;
    for (size_t s = 0; s < kSweepShards; ++s) {
      counts[s] = (*pipeline)->store().shard(s).record_count();
      total_checkpoints += (*pipeline)->shard_checkpoints(s);
    }
    EXPECT_GT(total_checkpoints, 0u)
        << "the policy thresholds never fired — the test is vacuous";
    ASSERT_TRUE((*pipeline)->Close().ok());
  }

  // Reopen: recovery must thread each shard's checkpoint horizon through
  // to its writer and reproduce the exact store.
  std::vector<WalRecoveryReport> reports;
  auto pipeline = IngestPipeline::Open(Env::Default(), root,
                                       CheckpointedIngestOptions(&verifier),
                                       &reports);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  bool any_checkpointed = false;
  for (size_t s = 0; s < kSweepShards; ++s) {
    EXPECT_EQ((*pipeline)->store().shard(s).record_count(), counts[s]);
    any_checkpointed |= reports[s].checkpoint_horizon > 0;
  }
  EXPECT_TRUE(any_checkpointed);
  auto verify = (*pipeline)->store().VerifyChains(TestPki::Instance().registry());
  EXPECT_TRUE(verify.ok()) << verify.ToString();
  ASSERT_TRUE((*pipeline)->Close().ok());

  // Without the verifier, a checkpointed shard must refuse to open.
  auto blind = IngestPipeline::Open(Env::Default(), root,
                                    CheckpointedIngestOptions(nullptr));
  EXPECT_EQ(blind.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointedIngestTest, CheckpointNowSealsEveryShard) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 16;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B58u, wl).ok());

  std::string root = FreshDir("now");
  IngestOptions options = CheckpointedIngestOptions(&verifier);
  options.checkpoint.every_records = 0;  // thresholds off; manual only
  options.checkpoint.every_bytes = 0;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (const IngestRequest& request : builder.requests()) {
    ASSERT_TRUE((*pipeline)->Submit(request).ok());
  }
  ASSERT_TRUE((*pipeline)->CheckpointNow().ok());
  for (size_t s = 0; s < kSweepShards; ++s) {
    if ((*pipeline)->store().shard(s).record_count() == 0) continue;
    const std::string dir = ShardedProvenanceStore::ShardDirName(root, s);
    auto latest = LatestCheckpointHorizon(Env::Default(), dir);
    EXPECT_TRUE(latest.ok()) << "shard " << s << " never sealed";
  }
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(CheckpointedIngestCrashSweepTest, CrashAtEveryMutatingOp) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 18;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B59u, wl).ok());
  const std::vector<IngestRequest>& requests = builder.requests();

  // Golden crash-free run: per-shard record bytes and the op budget.
  std::array<std::vector<Bytes>, kSweepShards> golden;
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    std::string root = FreshDir("golden");
    auto pipeline = IngestPipeline::Open(&env, root,
                                         CheckpointedIngestOptions(&verifier));
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    uint64_t checkpoints = 0;
    for (const IngestRequest& request : requests) {
      ASSERT_TRUE((*pipeline)->Submit(request).ok());
    }
    ASSERT_TRUE((*pipeline)->Close().ok());
    for (size_t s = 0; s < kSweepShards; ++s) {
      const ProvenanceStore& shard = (*pipeline)->store().shard(s);
      for (uint64_t i = 0; i < shard.record_count(); ++i) {
        golden[s].push_back(EncodeRecord(shard.record(i)));
      }
      checkpoints += (*pipeline)->shard_checkpoints(s);
    }
    ASSERT_GT(checkpoints, 0u) << "no checkpoint in the sweep window";
    total_ops = env.mutating_ops();
  }
  ASSERT_GT(total_ops, 20u) << "workload too small to be a sweep";

  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k));
    FaultInjectionEnv env(Env::Default());
    std::string root = FreshDir("op" + std::to_string(k));
    env.ScheduleCrashAtOp(k);

    std::array<uint64_t, kSweepShards> committed{};
    {
      auto pipeline = IngestPipeline::Open(
          &env, root, CheckpointedIngestOptions(&verifier));
      if (pipeline.ok()) {
        for (const IngestRequest& request : requests) {
          if (!(*pipeline)->Submit(request).ok()) break;
        }
        for (size_t s = 0; s < kSweepShards; ++s) {
          committed[s] = (*pipeline)->store().shard(s).record_count();
        }
      }
      // Scope exit without Close(): the crash.
    }
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());

    // Recovery must succeed at every crash point, and the power cut
    // model pins it exactly: nothing un-fsynced survives, nothing
    // committed is lost, GC'd segments never resurrect records.
    std::vector<WalRecoveryReport> reports;
    auto recovered = ShardedProvenanceStore::Recover(&env, root, kSweepShards,
                                                     &reports, &verifier);
    ASSERT_TRUE(recovered.ok())
        << "crash point must salvage or report, never fail to recover: "
        << recovered.status().ToString();
    for (size_t s = 0; s < kSweepShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const ProvenanceStore& shard = recovered->shard(s);
      EXPECT_EQ(shard.record_count(), committed[s]);
      ASSERT_LE(shard.record_count(), golden[s].size());
      for (uint64_t i = 0; i < shard.record_count(); ++i) {
        EXPECT_EQ(EncodeRecord(shard.record(i)), golden[s][i])
            << "recovered record " << i << " diverged from the golden run";
      }
    }

    // Resume: reopen (threading the recovered horizons), ingest the
    // missing suffix, and require byte-equality with the golden run.
    {
      auto pipeline = IngestPipeline::Open(
          &env, root, CheckpointedIngestOptions(&verifier));
      ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
      std::array<uint64_t, kSweepShards> seen{};
      for (const IngestRequest& request : requests) {
        const size_t s =
            ShardedProvenanceStore::ShardOf(request.object, kSweepShards);
        if (seen[s]++ < committed[s]) continue;  // already durable
        ASSERT_TRUE((*pipeline)->Submit(request).ok());
      }
      ASSERT_TRUE((*pipeline)->Close().ok());
      for (size_t s = 0; s < kSweepShards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s) + " after resume");
        const ProvenanceStore& shard = (*pipeline)->store().shard(s);
        ASSERT_EQ(shard.record_count(), golden[s].size());
        for (uint64_t i = 0; i < shard.record_count(); ++i) {
          EXPECT_EQ(EncodeRecord(shard.record(i)), golden[s][i]);
        }
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Background seals: a seal runs on the seal worker while the shard keeps
// ingesting into the fresh segment.
// ---------------------------------------------------------------------------

/// Seals handed to the seal worker and not yet finished (process-wide).
int64_t SealsInFlight() {
  return observability::GlobalMetrics().gauge("checkpoint.inflight")->value();
}

/// Per-shard encoded records of a crash-free replay of `requests`.
std::array<std::vector<Bytes>, kSweepShards> GoldenShards(
    const std::vector<IngestRequest>& requests,
    const crypto::SignatureVerifier* verifier, const std::string& tag) {
  std::array<std::vector<Bytes>, kSweepShards> golden;
  auto pipeline = provdb::testing::ReplayThroughPipeline(
      Env::Default(), FreshDir(tag), requests,
      CheckpointedIngestOptions(verifier));
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  if (!pipeline.ok()) return golden;
  for (size_t s = 0; s < kSweepShards; ++s) {
    const ProvenanceStore& shard = (*pipeline)->store().shard(s);
    for (uint64_t i = 0; i < shard.record_count(); ++i) {
      golden[s].push_back(EncodeRecord(shard.record(i)));
    }
  }
  return golden;
}

/// Submits requests from `*next` until a background seal is in flight,
/// then waits for it to reach the gate.
void IngestUntilSealHeld(IngestPipeline* pipeline, GatedEnv* gated,
                         const std::vector<IngestRequest>& requests,
                         size_t* next) {
  while (SealsInFlight() == 0 && *next < requests.size()) {
    ASSERT_TRUE(pipeline->Submit(requests[(*next)++]).ok());
  }
  ASSERT_GT(SealsInFlight(), 0) << "the checkpoint policy never fired";
  gated->AwaitHeld(1);
}

/// Recovered records of every shard must lie between what was acked and
/// what was submitted, match the crash-free run byte for byte, and verify.
void ExpectAckedSubsetOfRecoveredSubsetOfSubmitted(
    Env* env, const std::string& root,
    const crypto::SignatureVerifier& verifier,
    const std::array<uint64_t, kSweepShards>& acked,
    const std::array<uint64_t, kSweepShards>& submitted,
    const std::array<std::vector<Bytes>, kSweepShards>& golden) {
  auto recovered =
      ShardedProvenanceStore::Recover(env, root, kSweepShards, nullptr,
                                      &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (size_t s = 0; s < kSweepShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ProvenanceStore& shard = recovered->shard(s);
    EXPECT_GE(shard.record_count(), acked[s]) << "an acked record was lost";
    EXPECT_LE(shard.record_count(), submitted[s]);
    ASSERT_LE(shard.record_count(), golden[s].size());
    for (uint64_t i = 0; i < shard.record_count(); ++i) {
      EXPECT_EQ(EncodeRecord(shard.record(i)), golden[s][i]);
    }
  }
  auto report = recovered->VerifyChains(TestPki::Instance().registry());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// The crash lands inside a background seal while the shard's next
// batches append to the fresh segment: the first seal is held at its
// fsync, more batches are acked, then the crash is swept over every
// mutating op from the seal's release on — the seal's fsync, rename and
// directory sync interleaved with further batches and the GC after it.
TEST(CheckpointedIngestCrashSweepTest,
     CrashInsideBackgroundSealWhileTheNextBatchAppends) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 30;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B5Au, wl).ok());
  const std::vector<IngestRequest>& requests = builder.requests();
  const auto golden = GoldenShards(requests, &verifier, "sealcrash_golden");

  // One run, crashing at mutating op `k` after the seal's release (0 =
  // no crash); returns how many mutating ops followed the release.
  auto run = [&](uint64_t k) -> uint64_t {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k) +
                 " after the seal's release");
    FaultInjectionEnv fault(Env::Default());
    GatedEnv gated(&fault, ".pvck.tmp");
    gated.Hold();
    const std::string root = FreshDir("sealcrash" + std::to_string(k));
    std::array<uint64_t, kSweepShards> acked{};
    std::array<uint64_t, kSweepShards> submitted{};
    uint64_t released_at = 0;
    size_t next = 0;
    {
      auto pipeline = IngestPipeline::Open(
          &gated, root, CheckpointedIngestOptions(&verifier));
      EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
      if (!pipeline.ok()) return 0;
      IngestUntilSealHeld(pipeline->get(), &gated, requests, &next);
      if (::testing::Test::HasFatalFailure()) return 0;
      // The next batches append to the fresh segment and are acked while
      // the seal is still held.
      for (size_t i = 0; i < 6 && next < requests.size(); ++i) {
        EXPECT_TRUE((*pipeline)->Submit(requests[next++]).ok());
      }
      EXPECT_TRUE((*pipeline)->Drain().ok());
      auto ack = [&] {
        for (size_t s = 0; s < kSweepShards; ++s) {
          acked[s] = (*pipeline)->store().shard(s).record_count();
        }
      };
      ack();
      released_at = fault.mutating_ops();
      if (k > 0) fault.ScheduleCrashAtOp(k);
      gated.Release();
      while (next < requests.size()) {
        if (!(*pipeline)->Submit(requests[next++]).ok()) break;
        if (!(*pipeline)->Drain().ok()) break;
        ack();
      }
      for (size_t i = 0; i < next; ++i) {
        ++submitted[ShardedProvenanceStore::ShardOf(requests[i].object,
                                                    kSweepShards)];
      }
      // Scope exit without Close(): the crash. The seal worker finishes
      // (or fails on the frozen disk) before the pipeline is gone.
    }
    const uint64_t ops_after_release = fault.mutating_ops() - released_at;
    fault.ClearFaults();
    EXPECT_TRUE(fault.DropUnsyncedFileData().ok());
    ExpectAckedSubsetOfRecoveredSubsetOfSubmitted(&fault, root, verifier,
                                                  acked, submitted, golden);
    return ops_after_release;
  };

  const uint64_t budget = run(0);
  ASSERT_GT(budget, 4u) << "too few ops after the seal's release to sweep";
  for (uint64_t k = 1; k <= budget; ++k) {
    run(k);
    if (::testing::Test::HasFailure()) return;
  }
}

// Destroying the pipeline while a seal is in flight is the crash model
// too: the seal worker finishes on its own, nothing un-synced survives
// the power cut, and the store recovers with every acked record.
TEST(CheckpointedIngestTest, DestroyingWithASealInFlightStillRecovers) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 24;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B5Bu, wl).ok());
  const std::vector<IngestRequest>& requests = builder.requests();
  const auto golden = GoldenShards(requests, &verifier, "destroy_golden");

  FaultInjectionEnv fault(Env::Default());
  GatedEnv gated(&fault, ".pvck.tmp");
  gated.Hold();
  const std::string root = FreshDir("destroy_inflight");
  auto opened = IngestPipeline::Open(&gated, root,
                                     CheckpointedIngestOptions(&verifier));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<IngestPipeline> pipeline = std::move(*opened);
  size_t next = 0;
  IngestUntilSealHeld(pipeline.get(), &gated, requests, &next);
  if (::testing::Test::HasFatalFailure()) return;
  for (size_t i = 0; i < 4 && next < requests.size(); ++i) {
    ASSERT_TRUE(pipeline->Submit(requests[next++]).ok());
  }
  ASSERT_TRUE(pipeline->Drain().ok());
  std::array<uint64_t, kSweepShards> acked{};
  std::array<uint64_t, kSweepShards> submitted{};
  for (size_t s = 0; s < kSweepShards; ++s) {
    acked[s] = pipeline->store().shard(s).record_count();
  }
  for (size_t i = 0; i < next; ++i) {
    ++submitted[ShardedProvenanceStore::ShardOf(requests[i].object,
                                                kSweepShards)];
  }

  // Destroy with the seal still held, then let it go.
  ThreadPool destroyer(1);
  std::future<void> destroyed =
      destroyer.Submit([&pipeline] { pipeline.reset(); });
  gated.Release();
  destroyed.get();

  ASSERT_TRUE(fault.DropUnsyncedFileData().ok());
  ExpectAckedSubsetOfRecoveredSubsetOfSubmitted(&fault, root, verifier, acked,
                                                submitted, golden);

  // And the recovered directory reopens and keeps ingesting.
  auto reopened = IngestPipeline::Open(&fault, root,
                                       CheckpointedIngestOptions(&verifier));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->Close().ok());
}

/// Keeps a copy of every checkpoint the moment its rename lands, before
/// a later seal's GC can delete it.
class SealCaptureEnv final : public ForwardingEnv {
 public:
  using ForwardingEnv::ForwardingEnv;

  struct Seal {
    std::string dir;
    uint64_t horizon = 0;
    Bytes file;
  };

  Status RenameFile(const std::string& from, const std::string& to) override {
    PROVDB_RETURN_IF_ERROR(base()->RenameFile(from, to));
    if (to.size() > 5 && to.compare(to.size() - 5, 5, ".pvck") == 0) {
      PROVDB_ASSIGN_OR_RETURN(Bytes file, base()->ReadFileToBytes(to));
      const std::string dir = storage::ParentDir(to);
      PROVDB_ASSIGN_OR_RETURN(uint64_t horizon,
                              LatestCheckpointHorizon(base(), dir));
      std::lock_guard<std::mutex> lock(mu_);
      seals_.push_back(Seal{dir, horizon, std::move(file)});
    }
    return Status::OK();
  }

  std::vector<Seal> seals() {
    std::lock_guard<std::mutex> lock(mu_);
    return seals_;
  }

 private:
  std::mutex mu_;
  std::vector<Seal> seals_;
};

// A seal taken in the background while ingest continues must be
// byte-identical to a checkpoint written over a quiesced replay of
// exactly the batch prefix it covers (the concurrent-audit differential's
// prefix machinery): the pinned version it serialized was an exact
// durable batch prefix, and nothing the writer did meanwhile leaked in.
TEST(CheckpointedIngestTest, BackgroundSealMatchesQuiescedPrefixReplay) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 60;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B5Cu, wl).ok());

  SealCaptureEnv env(Env::Default());
  const std::string root = FreshDir("seal_prefix");
  IngestOptions options = CheckpointedIngestOptions(&verifier);
  options.max_batch_bytes = 1ull << 30;  // only the record threshold fires
  auto pipeline = IngestPipeline::Open(&env, root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (const IngestRequest& request : builder.requests()) {
    ASSERT_TRUE((*pipeline)->Submit(request).ok());
  }
  ASSERT_TRUE((*pipeline)->Close().ok());

  const std::vector<std::vector<uint64_t>> shard_seq =
      ShardRequestIndices(builder, kSweepShards);
  const std::vector<SealCaptureEnv::Seal> seals = env.seals();
  ASSERT_GE(seals.size(), 2u) << "too few background seals to compare";
  const std::string scratch = FreshDir("seal_prefix_replay");
  ASSERT_TRUE(Env::Default()->CreateDir(scratch).ok());
  for (const SealCaptureEnv::Seal& seal : seals) {
    size_t shard = kSweepShards;
    for (size_t s = 0; s < kSweepShards; ++s) {
      if (seal.dir == ShardedProvenanceStore::ShardDirName(root, s)) shard = s;
    }
    ASSERT_LT(shard, kSweepShards) << seal.dir;
    SCOPED_TRACE("shard " + std::to_string(shard) + " horizon " +
                 std::to_string(seal.horizon));

    // The prefix the seal covers: its record count, on a batch boundary.
    const std::string copy = CheckpointFileName(scratch, seal.horizon);
    {
      auto file = Env::Default()->NewWritableFile(copy);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(seal.file).ok());
      ASSERT_TRUE((*file)->Close().ok());
    }
    auto loaded = CheckpointReader::Load(Env::Default(), copy, verifier);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const uint64_t n = loaded->manifest.live_records;
    EXPECT_TRUE(n % options.max_batch_records == 0 ||
                n == shard_seq[shard].size())
        << n << " records is not a batch boundary";

    // The quiesced replay of that prefix, sealed at the same horizon.
    auto prefix = ShardPrefixStore(builder, kSweepShards, shard, n);
    ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
    ASSERT_TRUE(CheckpointWriter::Write(Env::Default(), scratch,
                                        prefix->CurrentView(), seal.horizon,
                                        P(1).signer(), P(1).id())
                    .ok());
    auto replayed = Env::Default()->ReadFileToBytes(copy);
    ASSERT_TRUE(replayed.ok());
    EXPECT_TRUE(*replayed == seal.file)
        << "background seal differs from the quiesced prefix replay";
  }
}

}  // namespace
}  // namespace provdb::provenance
