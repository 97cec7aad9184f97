// Durable lifecycle integration: TrackedDatabase -> WAL -> crash ->
// RecoverFromWal -> verification, including a fault-injection sweep that
// crashes the workload at every single file write.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "provenance/auditor.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/fault_injection_env.h"
#include "storage/wal.h"
#include "testing/differential.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::DifferentialWorkloadOptions;
using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::FaultInjectionEnv;
using storage::ObjectId;
using storage::Value;
using storage::WalOptions;
using storage::WalRecoveryReport;
using storage::WalWriter;

const crypto::Participant& P(int i) {
  return TestPki::Instance().participant(i - 1);
}

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/provdb_wal_recovery_" + tag;
  // Leftover segments from a previous run would be recovered as live
  // history; every caller starts from an empty log directory.
  auto names = Env::Default()->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(Env::Default()->RemoveFile(dir + "/" + name).ok());
    }
  }
  return dir;
}

/// The tracked workload every crash point is injected into: a small tree,
/// updates, an aggregation, and a post-aggregation update. Mirrors the
/// persistence integration test so the recovered store faces the same
/// verifier and auditor. Stops at the first failed operation, exactly as
/// a real writer hitting an I/O error would.
Status RunWorkload(TrackedDatabase& db, ObjectId* agg_out = nullptr) {
  PROVDB_ASSIGN_OR_RETURN(ObjectId root, db.Insert(P(1), Value::String("db")));
  PROVDB_ASSIGN_OR_RETURN(ObjectId row, db.Insert(P(1), Value::Int(0), root));
  PROVDB_ASSIGN_OR_RETURN(ObjectId cell, db.Insert(P(2), Value::Int(5), row));
  PROVDB_RETURN_IF_ERROR(db.Update(P(1), cell, Value::Int(6)));
  PROVDB_ASSIGN_OR_RETURN(ObjectId agg,
                          db.Aggregate(P(2), {root}, Value::String("agg")));
  PROVDB_RETURN_IF_ERROR(db.Update(P(2), agg, Value::String("agg-v2")));
  if (agg_out != nullptr) {
    *agg_out = agg;
  }
  return Status::OK();
}

TEST(WalRecoveryTest, DurableLifecycleRoundTripVerifies) {
  std::string dir = FreshDir("lifecycle");
  ObjectId agg = storage::kInvalidObjectId;
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(db.AttachWal(&*wal).ok());
  ASSERT_TRUE(RunWorkload(db, &agg).ok());
  ASSERT_TRUE(db.SyncWal().ok());

  WalRecoveryReport report;
  auto restored = ProvenanceStore::RecoverFromWal(Env::Default(), dir, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(restored->record_count(), db.provenance().record_count());

  // A bundle built from the recovered store + a live snapshot verifies.
  RecipientBundle bundle;
  bundle.subject = agg;
  bundle.data = *SubtreeSnapshot::Capture(db.tree(), agg);
  bundle.records = *restored->ExtractProvenance(agg);
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto verdict = verifier.Verify(bundle);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();

  // And the whole recovered store audits clean against the live tree.
  StoreAuditor auditor(&TestPki::Instance().registry());
  auto audit = auditor.Audit(restored->QuiescentSnapshot(), db.tree());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(WalRecoveryTest, AttachCheckpointsPreexistingRecords) {
  std::string dir = FreshDir("checkpoint");
  TrackedDatabase db;
  // Half the workload happens before the WAL exists...
  ASSERT_TRUE(RunWorkload(db).ok());
  uint64_t before_attach = db.provenance().record_count();
  ASSERT_GT(before_attach, 0u);

  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());
  // ...and more after. Recovery must replay both halves.
  ASSERT_TRUE(db.Update(P(1), *db.Insert(P(1), Value::Int(1)),
                        Value::Int(2)).ok());
  ASSERT_TRUE(db.SyncWal().ok());

  auto restored = ProvenanceStore::RecoverFromWal(Env::Default(), dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT(db.provenance().record_count(), before_attach);
  EXPECT_EQ(restored->record_count(), db.provenance().record_count());
}

TEST(WalRecoveryTest, FailedAttachCheckpointLeavesStoreUsableAndUnattached) {
  // If the attach-time checkpoint of pre-existing records fails partway
  // through its WAL appends, the attach must not half-happen: the store
  // stays detached (no write-ahead contract against a log holding a
  // partial history) and remains fully usable in memory.
  std::string dir = FreshDir("attach_fault");
  FaultInjectionEnv env(Env::Default());
  TrackedDatabase db;
  ASSERT_TRUE(RunWorkload(db).ok());
  uint64_t before_attach = db.provenance().record_count();
  ASSERT_GT(before_attach, 1u);

  auto wal = WalWriter::Open(&env, dir);
  ASSERT_TRUE(wal.ok());
  env.ScheduleAppendFailure(2);  // fail mid-checkpoint, not on record 1
  EXPECT_EQ(db.AttachWal(&*wal).code(), StatusCode::kIoError);
  env.ClearFaults();

  // Unattached: durability calls refuse, mutations bypass the WAL.
  EXPECT_EQ(db.SyncWal().code(), StatusCode::kFailedPrecondition);
  uint64_t appended = wal->appended_records();
  ASSERT_TRUE(db.Insert(P(1), Value::Int(42)).ok());
  EXPECT_EQ(db.provenance().record_count(), before_attach + 1);
  EXPECT_EQ(wal->appended_records(), appended)
      << "a failed attach must not leave the WAL wired to the store";

  // A later attach to a fresh log works and checkpoints everything.
  std::string dir2 = FreshDir("attach_fault_retry");
  auto wal2 = WalWriter::Open(Env::Default(), dir2);
  ASSERT_TRUE(wal2.ok());
  ASSERT_TRUE(db.AttachWal(&*wal2).ok());
  ASSERT_TRUE(db.SyncWal().ok());
  auto restored = ProvenanceStore::RecoverFromWal(Env::Default(), dir2);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->record_count(), db.provenance().record_count());
}

TEST(WalRecoveryTest, SecondAttachRejected) {
  std::string dir = FreshDir("reattach");
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());
  EXPECT_EQ(db.AttachWal(&*wal).code(), StatusCode::kFailedPrecondition);
}

TEST(WalRecoveryTest, SyncWithoutAttachedWalFails) {
  TrackedDatabase db;
  EXPECT_EQ(db.SyncWal().code(), StatusCode::kFailedPrecondition);
}

TEST(WalRecoveryTest, FailedWalAppendLeavesStoreUnchanged) {
  // The write-ahead contract: if the log cannot take the record, the
  // in-memory store must not either (no divergence from disk).
  std::string dir = FreshDir("rejected");
  FaultInjectionEnv env(Env::Default());
  TrackedDatabase db;
  auto wal = WalWriter::Open(&env, dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());
  ASSERT_TRUE(db.Insert(P(1), Value::String("db")).ok());
  uint64_t committed = db.provenance().record_count();

  env.ScheduleAppendFailure(1);
  EXPECT_FALSE(db.Insert(P(1), Value::Int(7)).ok());
  EXPECT_EQ(db.provenance().record_count(), committed);
  env.ClearFaults();

  // The store is usable again once the fault clears.
  EXPECT_TRUE(db.Insert(P(1), Value::Int(8)).ok());
  EXPECT_EQ(db.provenance().record_count(), committed + 1);
}

TEST(WalRecoveryTest, PruneSurvivesCrashRecovery) {
  std::string dir = FreshDir("prune");
  TrackedDatabase db;
  auto wal = WalWriter::Open(Env::Default(), dir);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());

  ObjectId solo = *db.Insert(P(1), Value::String("solo"));
  ASSERT_TRUE(db.Update(P(1), solo, Value::String("solo-v2")).ok());
  ObjectId agg = *db.Aggregate(P(2), {solo}, Value::String("agg"));
  ASSERT_TRUE(db.Insert(P(1), Value::Int(7)).ok());  // unrelated survivor
  // Pruning the aggregate releases its input refs, which is what makes
  // pruning `solo` legal — an ordering a replay of appends alone cannot
  // reproduce: it would re-inflate the refs and refuse the second prune.
  ASSERT_TRUE(db.mutable_provenance()->PruneObject(agg).ok());
  auto dropped = db.mutable_provenance()->PruneObject(solo);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_GT(*dropped, 0u);
  ASSERT_TRUE(db.SyncWal().ok());

  auto restored = ProvenanceStore::RecoverFromWal(Env::Default(), dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->record_count(), db.provenance().record_count());
  EXPECT_EQ(restored->live_record_count(),
            db.provenance().live_record_count());
  EXPECT_TRUE(restored->ChainOf(solo).empty()) << "prune resurrected";
  EXPECT_TRUE(restored->ChainOf(agg).empty()) << "prune resurrected";
}

TEST(WalRecoveryTest, BatchedSyncPowerCutRecoversExactlySyncedPrefix) {
  std::string dir = FreshDir("batched");
  FaultInjectionEnv env(Env::Default());
  TrackedDatabase db;
  auto wal = WalWriter::Open(&env, dir);  // sync_every_append = false
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(db.AttachWal(&*wal).ok());

  ObjectId root = *db.Insert(P(1), Value::String("db"));
  ASSERT_TRUE(db.Insert(P(1), Value::Int(0), root).ok());
  ASSERT_TRUE(db.SyncWal().ok());
  uint64_t synced = wal->synced_records();
  // More records after the durability point, never synced.
  ASSERT_TRUE(db.Insert(P(2), Value::Int(1), root).ok());
  ASSERT_TRUE(db.Update(P(2), root, Value::String("db-v2")).ok());
  ASSERT_GT(wal->appended_records(), synced);

  ASSERT_TRUE(env.DropUnsyncedFileData().ok());

  WalRecoveryReport report;
  auto restored = ProvenanceStore::RecoverFromWal(&env, dir, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(report.clean()) << report.detail;
  EXPECT_EQ(restored->record_count(), synced);
  EXPECT_LT(restored->record_count(), db.provenance().record_count());
}

/// One sweep iteration: run the workload against a WAL whose `k`-th file
/// write fails (optionally tearing mid-write), optionally power-cut the
/// machine (dropping unsynced data), then recover and check the two
/// invariants of ISSUE acceptance: every record appended before a
/// successful Sync survives, and no half-written frame is resurrected.
void CrashAtWrite(uint64_t k, bool torn, bool power_cut) {
  SCOPED_TRACE("crash at write " + std::to_string(k) +
               (torn ? " (torn)" : " (clean)") +
               (power_cut ? " + power cut" : ""));
  std::string dir = FreshDir("sweep_" + std::to_string(k) +
                             (torn ? "t" : "c") + (power_cut ? "p" : ""));
  FaultInjectionEnv env(Env::Default());
  env.ScheduleAppendFailure(k, torn);

  WalOptions options;
  options.sync_every_append = true;
  TrackedDatabase db;
  auto wal = WalWriter::Open(&env, dir, options);
  if (wal.ok()) {
    ASSERT_TRUE(db.AttachWal(&*wal).ok());
    Status crash = RunWorkload(db);  // expected to die at crash point k
    (void)crash;
  }
  // Every record the store committed was synced before commit.
  uint64_t committed = db.provenance().record_count();
  if (wal.ok()) {
    EXPECT_EQ(wal->synced_records(), committed);
  }

  env.ClearFaults();
  if (power_cut) {
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());
  }

  WalRecoveryReport report;
  auto restored = ProvenanceStore::RecoverFromWal(&env, dir, &report);
  ASSERT_TRUE(restored.ok())
      << "crash point must salvage or report, never fail to recover: "
      << restored.status().ToString();
  // Exactly the committed prefix — nothing lost, nothing resurrected.
  EXPECT_EQ(restored->record_count(), committed);
  if (power_cut) {
    // The torn half-frame was never synced, so the power cut erases it:
    // recovery sees a byte-exact log.
    EXPECT_TRUE(report.clean()) << report.detail;
  } else if (torn && k > 1) {
    // Process crash without power cut: the flushed half-frame is still on
    // disk and must be reported as dropped, not silently absorbed.
    EXPECT_GT(report.dropped_bytes, 0u);
  }

  // Second cycle: after the first recovery repaired the tail, a writer
  // restarts on the directory (as the recovered process would) and a
  // later recovery must still be clean. Guards the double-crash case
  // where the crash tore a segment *header* — the remnant must not
  // survive as a headerless segment stranded before the new tail.
  {
    auto wal2 = WalWriter::Open(&env, dir, options);
    ASSERT_TRUE(wal2.ok()) << wal2.status().ToString();
    ASSERT_TRUE(wal2->Close().ok());
  }
  auto restored2 = ProvenanceStore::RecoverFromWal(&env, dir, &report);
  ASSERT_TRUE(restored2.ok())
      << "recovery after restart must stay clean: "
      << restored2.status().ToString();
  EXPECT_TRUE(report.clean()) << report.detail;
  EXPECT_EQ(restored2->record_count(), committed);
}

TEST(WalCrashSweepTest, CrashAtEveryWrite) {
  // Dry run: count every file write the full workload performs (segment
  // header included) so the sweep covers each one.
  uint64_t total_writes = 0;
  {
    FaultInjectionEnv env(Env::Default());
    WalOptions options;
    options.sync_every_append = true;
    TrackedDatabase db;
    auto wal = WalWriter::Open(&env, FreshDir("sweep_dry"), options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(db.AttachWal(&*wal).ok());
    ASSERT_TRUE(RunWorkload(db).ok());
    ASSERT_TRUE(wal->Close().ok());
    total_writes = env.append_count();
  }
  ASSERT_GT(total_writes, 5u) << "workload too small to be a sweep";

  for (uint64_t k = 1; k <= total_writes; ++k) {
    CrashAtWrite(k, /*torn=*/false, /*power_cut=*/false);
    CrashAtWrite(k, /*torn=*/true, /*power_cut=*/false);
    CrashAtWrite(k, /*torn=*/true, /*power_cut=*/true);
  }
}

// ---------------------------------------------------------------------
// Sharded group-commit crash sweep: the batched ingest pipeline under
// fault injection. Invariants from the write-ahead contract:
//   * a record is committed in memory only after its batch is fsynced,
//     so per shard synced_records == committed count at any crash point;
//   * after a power cut, recovery yields *exactly* the committed records
//     (nothing un-fsynced resurrected, nothing durable lost);
//   * without a power cut, recovery yields at least the committed prefix
//     and never anything beyond the golden (crash-free) run;
//   * resuming ingest of the not-yet-durable requests reproduces the
//     golden store byte for byte.
// ---------------------------------------------------------------------

constexpr size_t kSweepShards = 2;

IngestOptions SweepIngestOptions() {
  IngestOptions options;
  options.num_shards = kSweepShards;
  options.max_batch_records = 3;  // several flushes, each one fsync
  // Default (sequential) signing: FaultInjectionEnv is single-threaded.
  return options;
}

struct ShardedSweepFixture {
  std::vector<IngestRequest> requests;
  // Per shard, the EncodeRecord bytes of the crash-free run, in commit
  // order. Per-shard commit order is fully determined by submit order,
  // so any crashed run must be a byte-prefix of this.
  std::array<std::vector<Bytes>, kSweepShards> golden;
  uint64_t total_appends = 0;
  uint64_t total_syncs = 0;
};

std::string FreshIngestRoot(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_ingest_sweep_" + tag;
  EXPECT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  return root;
}

/// Builds the seeded workload once, replays it crash-free through a
/// fault-counting env to freeze the golden per-shard record bytes and
/// the append/sync counts the sweeps iterate over.
void BuildShardedSweepFixture(ShardedSweepFixture* fx) {
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 30;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4A54u, wl).ok());
  fx->requests = builder.requests();
  ASSERT_GT(fx->requests.size(), 10u);

  FaultInjectionEnv env(Env::Default());
  std::string root = FreshIngestRoot("golden");
  auto pipeline = IngestPipeline::Open(&env, root, SweepIngestOptions());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (const IngestRequest& request : fx->requests) {
    ASSERT_TRUE((*pipeline)->Submit(request).ok());
  }
  ASSERT_TRUE((*pipeline)->Close().ok());
  for (size_t s = 0; s < kSweepShards; ++s) {
    const ProvenanceStore& shard = (*pipeline)->store().shard(s);
    for (uint64_t i = 0; i < shard.record_count(); ++i) {
      fx->golden[s].push_back(EncodeRecord(shard.record(i)));
    }
    ASSERT_FALSE(fx->golden[s].empty()) << "shard " << s << " never used";
  }
  fx->total_appends = env.append_count();
  fx->total_syncs = env.sync_count();
}

/// One crash cycle: ingest under an injected fault, crash (destroy the
/// pipeline without Close), optionally power-cut, recover, check the
/// durability invariants, then resume the missing suffix and require the
/// end state to equal the golden run.
void RunShardedCrashCycle(const ShardedSweepFixture& fx,
                          const std::function<void(FaultInjectionEnv*)>& arm,
                          bool power_cut, const std::string& tag) {
  std::string root = FreshIngestRoot(tag);
  FaultInjectionEnv env(Env::Default());
  arm(&env);

  std::array<uint64_t, kSweepShards> committed{};
  {
    auto pipeline = IngestPipeline::Open(&env, root, SweepIngestOptions());
    if (pipeline.ok()) {
      for (const IngestRequest& request : fx.requests) {
        if (!(*pipeline)->Submit(request).ok()) break;  // pipeline poisoned
      }
      for (size_t s = 0; s < kSweepShards; ++s) {
        committed[s] = (*pipeline)->store().shard(s).record_count();
        const WalWriter* wal = (*pipeline)->shard_wal(s);
        ASSERT_NE(wal, nullptr);
        // The write-ahead contract under group commit: nothing commits
        // in memory before its batch hit fsync.
        EXPECT_EQ(wal->synced_records(), committed[s]);
      }
    }
    // Scope exit without Close(): the crash.
  }

  env.ClearFaults();
  if (power_cut) {
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());
  }

  std::vector<WalRecoveryReport> reports;
  auto recovered =
      ShardedProvenanceStore::Recover(&env, root, kSweepShards, &reports);
  ASSERT_TRUE(recovered.ok())
      << "crash point must salvage or report, never fail to recover: "
      << recovered.status().ToString();
  std::array<uint64_t, kSweepShards> durable{};
  for (size_t s = 0; s < kSweepShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ProvenanceStore& shard = recovered->shard(s);
    durable[s] = shard.record_count();
    if (power_cut) {
      // A power cut erases everything un-fsynced: recovery must see
      // exactly the committed records — no resurrection, no loss.
      EXPECT_EQ(durable[s], committed[s]);
    } else {
      // A process crash leaves OS-buffered appends on disk; recovery may
      // keep them, but never less than what was committed durable.
      EXPECT_GE(durable[s], committed[s]);
    }
    ASSERT_LE(durable[s], fx.golden[s].size());
    for (uint64_t i = 0; i < durable[s]; ++i) {
      EXPECT_EQ(EncodeRecord(shard.record(i)), fx.golden[s][i])
          << "recovered record " << i << " diverged from the golden run";
    }
  }

  // Resume: a fresh pipeline recovers the shard tails and ingests every
  // request that is not yet durable. The result must be byte-identical
  // to never having crashed (chains continue from recovered tails).
  {
    auto pipeline = IngestPipeline::Open(&env, root, SweepIngestOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    std::array<uint64_t, kSweepShards> seen{};
    for (const IngestRequest& request : fx.requests) {
      const size_t s =
          ShardedProvenanceStore::ShardOf(request.object, kSweepShards);
      if (seen[s]++ < durable[s]) continue;  // already recovered
      ASSERT_TRUE((*pipeline)->Submit(request).ok());
    }
    ASSERT_TRUE((*pipeline)->Close().ok());
    for (size_t s = 0; s < kSweepShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s) + " after resume");
      const ProvenanceStore& shard = (*pipeline)->store().shard(s);
      ASSERT_EQ(shard.record_count(), fx.golden[s].size());
      for (uint64_t i = 0; i < shard.record_count(); ++i) {
        EXPECT_EQ(EncodeRecord(shard.record(i)), fx.golden[s][i]);
      }
    }
  }
}

TEST(ShardedIngestCrashSweepTest, CrashAtEveryAppend) {
  ShardedSweepFixture fx;
  BuildShardedSweepFixture(&fx);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GT(fx.total_appends, 10u) << "workload too small to be a sweep";

  // Small k crashes the shard WAL *header* writes during Open — the
  // mid-shard-directory-creation case — before any record lands.
  for (uint64_t k = 1; k <= fx.total_appends; ++k) {
    for (bool torn : {false, true}) {
      for (bool power_cut : {false, true}) {
        SCOPED_TRACE("append " + std::to_string(k) +
                     (torn ? " torn" : " clean") +
                     (power_cut ? " + power cut" : ""));
        RunShardedCrashCycle(
            fx,
            [k, torn](FaultInjectionEnv* env) {
              env->ScheduleAppendFailure(k, torn);
            },
            power_cut,
            "a" + std::to_string(k) + (torn ? "t" : "c") +
                (power_cut ? "p" : ""));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ShardedIngestCrashSweepTest, CrashAtEveryBatchFsync) {
  ShardedSweepFixture fx;
  BuildShardedSweepFixture(&fx);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GT(fx.total_syncs, 4u) << "not enough batches to sweep";

  // Failing the n-th fsync kills a whole batch at its durability point:
  // none of that batch's records may commit, and after a power cut none
  // may survive on disk.
  for (uint64_t n = 1; n <= fx.total_syncs; ++n) {
    for (bool power_cut : {false, true}) {
      SCOPED_TRACE("sync " + std::to_string(n) +
                   (power_cut ? " + power cut" : ""));
      RunShardedCrashCycle(
          fx,
          [n](FaultInjectionEnv* env) { env->ScheduleSyncFailure(n); },
          power_cut, "s" + std::to_string(n) + (power_cut ? "p" : ""));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace provdb::provenance
