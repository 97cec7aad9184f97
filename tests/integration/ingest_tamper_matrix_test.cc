// Tamper matrix over the sharded ingest write path: every serialized
// field of every record produced by the pipeline — seqID, participant,
// each input/output attribute, checksum bytes — is mutated in turn, and
// every single mutation must be caught by chain verification or the
// store audit (the executable form of R1–R3 over the new write path).
// A second sweep flips raw bytes of the on-disk WAL segments (header,
// mid-log frame, tail CRC) and asserts recovery refuses or reports them.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "provenance/auditor.h"
#include "provenance/serialization.h"
#include "storage/env.h"
#include "testing/differential.h"

namespace provdb::provenance {
namespace {

using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::ReplayThroughPipeline;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::ObjectId;

/// The fixed tamper workload. Every chain gets at least two records: a
/// chain with exactly one record can be re-attributed to an unused
/// object id without any cross-record link to break, so single-record
/// chains would make some rename mutations undetectable by design.
/// Every aggregate input is tracked (non-empty previous checksum), so
/// re-pointing an aggregate input always breaks checksum resolution.
void BuildTamperWorkload(IngestWorkloadBuilder* b) {
  ObjectId a = *b->Insert(0, storage::Value::String("a"));
  ASSERT_TRUE(b->Update(a, 1, storage::Value::String("a2")).ok());
  ObjectId x = *b->Insert(1, storage::Value::Int(10));
  ASSERT_TRUE(b->Update(x, 0, storage::Value::Int(11)).ok());
  ObjectId boot = *b->AddBootstrapObject(storage::Value::String("legacy"));
  ASSERT_TRUE(b->Update(boot, 2, storage::Value::String("legacy2")).ok());
  ASSERT_TRUE(b->Update(boot, 3, storage::Value::String("legacy3")).ok());
  ObjectId agg = *b->Aggregate({a, x}, 2, storage::Value::String("agg"));
  ASSERT_TRUE(b->Update(agg, 3, storage::Value::String("agg2")).ok());
  ObjectId agg2 = *b->Aggregate({x, boot}, 3, storage::Value::String("agg3"));
  ASSERT_TRUE(b->Update(agg2, 0, storage::Value::String("agg4")).ok());
}

/// Rebuilds a store from `records` and audits it against the live tree.
/// True when the tampering is caught anywhere along the way — the store
/// itself may already refuse structurally broken chains.
bool MutationCaught(const std::vector<ProvenanceRecord>& records,
                    const storage::TreeStore& tree,
                    const crypto::ParticipantRegistry& registry,
                    crypto::HashAlgorithm alg) {
  ProvenanceStore store;
  for (size_t i = 0; i < records.size(); ++i) {
    if (!store.AddRecord(records[i]).ok()) return true;
  }
  StoreAuditor auditor(&registry, alg);
  VerificationReport report = auditor.Audit(store.QuiescentSnapshot(), tree);
  return !report.ok();
}

TEST(IngestTamperMatrixTest, EverySingleFieldMutationIsDetected) {
  IngestWorkloadBuilder builder;
  BuildTamperWorkload(&builder);
  if (::testing::Test::HasFatalFailure()) return;

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 3;
  std::string root = ::testing::TempDir() + "/provdb_tamper_fields";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline =
      ReplayThroughPipeline(Env::Default(), root, builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // Canonical flattening of the sharded store (ascending object id,
  // seqID order) — the order snapshot extraction uses.
  std::vector<ProvenanceRecord> base;
  const auto chains = (*pipeline)->store().AllChains();
  for (auto it = chains.begin(); it != chains.end(); ++it) {
    for (const ProvenanceRecord* rec : it->second) {
      base.push_back(*rec);
    }
  }
  ASSERT_GE(base.size(), 10u);

  // The untampered pipeline output must audit clean, or the matrix below
  // would "detect" everything vacuously.
  ASSERT_FALSE(MutationCaught(base, builder.tree(),
                              builder.registry(), builder.algorithm()));

  struct Mutation {
    std::string name;
    std::function<bool(ProvenanceRecord*)> apply;  // false = not applicable
  };
  const std::vector<Mutation> mutations = {
      {"seq_id+1",
       [](ProvenanceRecord* r) {
         r->seq_id += 1;
         return true;
       }},
      {"participant->other",
       [](ProvenanceRecord* r) {
         r->participant = (r->participant % TestPki::kNumParticipants) + 1;
         return true;
       }},
      {"participant->unknown",
       [](ProvenanceRecord* r) {
         r->participant = 999;
         return true;
       }},
      {"output.object_id rename",
       [](ProvenanceRecord* r) {
         r->output.object_id += 1000000;
         return true;
       }},
      {"output.state_hash flip",
       [](ProvenanceRecord* r) {
         if (r->output.state_hash.size() == 0) return false;
         Bytes raw(r->output.state_hash.data(),
                   r->output.state_hash.data() + r->output.state_hash.size());
         raw[0] ^= 0x01;
         r->output.state_hash =
             crypto::Digest::FromBytes(ByteView(raw.data(), raw.size()));
         return true;
       }},
      {"checksum byte flip",
       [](ProvenanceRecord* r) {
         if (r->checksum.empty()) return false;
         r->checksum[r->checksum.size() / 2] ^= 0x40;
         return true;
       }},
      {"checksum truncation",
       [](ProvenanceRecord* r) {
         if (r->checksum.empty()) return false;
         r->checksum.pop_back();
         return true;
       }},
      {"checksum cleared",
       [](ProvenanceRecord* r) {
         if (r->checksum.empty()) return false;
         r->checksum.clear();
         return true;
       }},
  };

  size_t applied = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    for (const Mutation& m : mutations) {
      std::vector<ProvenanceRecord> tampered = base;
      if (!m.apply(&tampered[i])) continue;
      SCOPED_TRACE("record " + std::to_string(i) + " (object " +
                   std::to_string(base[i].output.object_id) + " seq " +
                   std::to_string(base[i].seq_id) + "): " + m.name);
      EXPECT_TRUE(MutationCaught(tampered, builder.tree(), builder.registry(),
                                 builder.algorithm()))
          << "tampering escaped both verify and audit";
      ++applied;
    }
    // Per-input-attribute mutations.
    for (size_t k = 0; k < base[i].inputs.size(); ++k) {
      {
        std::vector<ProvenanceRecord> tampered = base;
        tampered[i].inputs[k].object_id += 1000000;
        SCOPED_TRACE("record " + std::to_string(i) + " input " +
                     std::to_string(k) + ": object_id rename");
        EXPECT_TRUE(MutationCaught(tampered, builder.tree(),
                                   builder.registry(), builder.algorithm()))
            << "tampering escaped both verify and audit";
        ++applied;
      }
      {
        std::vector<ProvenanceRecord> tampered = base;
        const crypto::Digest& d = tampered[i].inputs[k].state_hash;
        Bytes raw(d.data(), d.data() + d.size());
        ASSERT_FALSE(raw.empty());
        raw[0] ^= 0x01;
        tampered[i].inputs[k].state_hash =
            crypto::Digest::FromBytes(ByteView(raw.data(), raw.size()));
        SCOPED_TRACE("record " + std::to_string(i) + " input " +
                     std::to_string(k) + ": state_hash flip");
        EXPECT_TRUE(MutationCaught(tampered, builder.tree(),
                                   builder.registry(), builder.algorithm()))
            << "tampering escaped both verify and audit";
        ++applied;
      }
    }
  }
  // 8 record-level mutations × records (minus inapplicable) + 2 per
  // input; sanity-check the sweep actually ran wide.
  EXPECT_GE(applied, base.size() * 8);
}

// Snapshot-path entry of the matrix (DESIGN.md §16): an auditor holding
// an epoch-pinned snapshot reads the same stable record storage the
// writer committed — so in-place tampering with any serialized record
// field is visible through the held snapshot and must be 100% detected
// by snapshot verify/audit. Mutations are applied between verification
// passes on this thread (tamper-evidence needs no racing mutator; the
// racing-writer case is the concurrent-audit differential's job), which
// also keeps the test TSan-clean. The snapshot itself must only ever
// observe whole durable batches.
TEST(IngestTamperMatrixTest, SnapshotHeldByAuditorDetectsEveryFieldMutation) {
  IngestWorkloadBuilder builder;
  BuildTamperWorkload(&builder);
  if (::testing::Test::HasFatalFailure()) return;

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 3;
  std::string root = ::testing::TempDir() + "/provdb_tamper_snapshot";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline =
      ReplayThroughPipeline(Env::Default(), root, builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // The held cut: exactly the full drained workload, never a partial
  // batch.
  StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  ASSERT_EQ(snapshot.record_count(), builder.requests().size());

  StoreAuditor auditor(&builder.registry(), builder.algorithm());
  ProvenanceVerifier verifier(&builder.registry(), builder.algorithm());
  ASSERT_TRUE(verifier.VerifyStore(snapshot).ok());
  ASSERT_TRUE(auditor.Audit(snapshot, builder.tree()).ok());

  const std::vector<std::pair<std::string,
                              std::function<bool(ProvenanceRecord*)>>>
      mutations = {
          {"seq_id+1",
           [](ProvenanceRecord* r) {
             r->seq_id += 1;
             return true;
           }},
          {"participant->other",
           [](ProvenanceRecord* r) {
             r->participant =
                 (r->participant % TestPki::kNumParticipants) + 1;
             return true;
           }},
          {"output.object_id rename",
           [](ProvenanceRecord* r) {
             r->output.object_id += 1000000;
             return true;
           }},
          {"output.state_hash flip",
           [](ProvenanceRecord* r) {
             if (r->output.state_hash.size() == 0) return false;
             Bytes raw(
                 r->output.state_hash.data(),
                 r->output.state_hash.data() + r->output.state_hash.size());
             raw[0] ^= 0x01;
             r->output.state_hash =
                 crypto::Digest::FromBytes(ByteView(raw.data(), raw.size()));
             return true;
           }},
          {"checksum byte flip",
           [](ProvenanceRecord* r) {
             if (r->checksum.empty()) return false;
             r->checksum[r->checksum.size() / 2] ^= 0x40;
             return true;
           }},
      };

  size_t applied = 0;
  ShardedProvenanceStore* store = (*pipeline)->mutable_store();
  for (size_t s = 0; s < store->num_shards(); ++s) {
    ProvenanceStore& shard = store->shard(s);
    for (uint64_t i = 0; i < shard.record_count(); ++i) {
      for (const auto& [name, apply] : mutations) {
        ProvenanceRecord* live = shard.mutable_record(i);
        const ProvenanceRecord original = *live;
        if (!apply(live)) continue;
        SCOPED_TRACE("shard " + std::to_string(s) + " record " +
                     std::to_string(i) + " (object " +
                     std::to_string(original.output.object_id) + " seq " +
                     std::to_string(original.seq_id) + "): " + name);
        // The held snapshot reads the tampered bytes — and catches them.
        VerificationReport verify = verifier.VerifyStore(snapshot);
        VerificationReport audit = auditor.Audit(snapshot, builder.tree());
        EXPECT_TRUE(!verify.ok() || !audit.ok())
            << "in-place tampering escaped the snapshot audit";
        *live = original;
        ++applied;
      }
    }
  }
  EXPECT_GE(applied, builder.requests().size() * 4);

  // Restored store verifies clean again through the same held snapshot.
  EXPECT_TRUE(verifier.VerifyStore(snapshot).ok());
  EXPECT_TRUE(auditor.Audit(snapshot, builder.tree()).ok());
}

TEST(IngestTamperMatrixTest, WalByteFlipsAreRefusedOrReported) {
  IngestWorkloadBuilder builder;
  BuildTamperWorkload(&builder);
  if (::testing::Test::HasFatalFailure()) return;

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 3;
  std::string root = ::testing::TempDir() + "/provdb_tamper_wal";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline =
      ReplayThroughPipeline(Env::Default(), root, builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  Env* env = Env::Default();
  for (size_t s = 0; s < 2; ++s) {
    const uint64_t expected = (*pipeline)->store().shard(s).record_count();
    if (expected == 0) continue;
    const std::string dir = ShardedProvenanceStore::ShardDirName(root, s);
    const std::string segment = storage::WalWriter::SegmentFileName(dir, 1);
    auto original = env->ReadFileToBytes(segment);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    ASSERT_GT(original->size(), storage::kWalHeaderSize + 8);

    const std::vector<std::pair<std::string, size_t>> offsets = {
        {"segment header", 3},
        {"mid-log frame", storage::kWalHeaderSize + 6},
        {"tail CRC", original->size() - 2},
    };
    auto rewrite = [&](const Bytes& content) {
      auto file = env->NewWritableFile(segment);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(content).ok());
      ASSERT_TRUE((*file)->Close().ok());
    };

    for (const auto& [what, offset] : offsets) {
      SCOPED_TRACE("shard " + std::to_string(s) + ": flip in " + what +
                   " at offset " + std::to_string(offset));
      Bytes tampered = *original;
      tampered[offset] ^= 0x01;
      rewrite(tampered);
      if (::testing::Test::HasFatalFailure()) return;

      storage::WalRecoveryReport report;
      auto recovered = ProvenanceStore::RecoverFromWal(env, dir, &report);
      const bool caught = !recovered.ok() || !report.clean() ||
                          recovered->record_count() != expected;
      EXPECT_TRUE(caught) << "flipped WAL byte recovered as a clean log";

      rewrite(*original);  // restore for the next offset
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace provdb::provenance
