// recover_audit: bulk reads and recovery, in-process, no network and no
// signing in the measured part. Set-up ingests a Fig-10 style mix
// (inserts, updates, ~15% aggregates) over many short chains with sealed
// checkpoints, then closes the pipeline. Each measured cycle reopens a
// pristine copy of that store (IngestPipeline::Open: load the newest
// checkpoint per shard, replay the WAL suffix) and audits it
// (OpenSnapshot + ProvenanceVerifier::VerifyStore on a pool).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/verifier.h"
#include "storage/env.h"

namespace perfbench {
namespace {

using provenance::IngestOptions;
using provenance::IngestPipeline;
using provenance::IngestRequest;
using provenance::ObjectState;
using provenance::OperationType;
using storage::ObjectId;

struct RecoverShape {
  size_t objects;          // inserted first
  size_t updates;          // uniform, so chains stay short
  size_t aggregates;       // 2-3 inputs each, fresh output objects
  size_t suffix_updates;   // after the last seal: the WAL suffix to replay
  uint64_t checkpoint_every;
  size_t setups;
};

constexpr size_t kReplayChains = 300;

/// Ingests the mix into a fresh store at `root` and closes it. Returns the
/// record count.
uint64_t BuildStore(const RecoverShape& shape, const IngestOptions& options,
                    const Pki& pki, uint64_t seed, const std::string& root) {
  RemoveTree(root);
  auto opened = IngestPipeline::Open(storage::Env::Default(), root, options);
  Check(opened.status(), "recover_audit store open");
  IngestPipeline& pipeline = **opened;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x7F4A7C15);
  std::vector<crypto::Digest> last;  // index = object id - 1
  uint64_t records = 0;
  auto submit = [&](IngestRequest request) {
    request.participant = pki.participant(records);
    Check(pipeline.Submit(request), "recover_audit submit");
    ++records;
  };
  auto update = [&](ObjectId id) {
    IngestRequest request;
    request.op = OperationType::kUpdate;
    request.object = id;
    request.has_pre_hash = true;
    request.pre_hash = last[id - 1];
    request.post_hash = RandomDigest(&rng);
    last[id - 1] = request.post_hash;
    submit(std::move(request));
  };

  for (size_t i = 0; i < shape.objects; ++i) {
    IngestRequest request;
    request.op = OperationType::kInsert;
    request.object = i + 1;
    request.post_hash = RandomDigest(&rng);
    last.push_back(request.post_hash);
    submit(std::move(request));
  }
  for (size_t i = 0; i < shape.updates; ++i) {
    update(1 + rng.NextBelow(shape.objects));
  }
  // Aggregates need their inputs' latest checksums: read them from the
  // drained store, as a producer resolving dependencies would.
  Check(pipeline.Drain(), "recover_audit drain");
  for (size_t a = 0; a < shape.aggregates; ++a) {
    std::vector<ObjectId> inputs;
    const size_t fan_in = 2 + rng.NextBelow(2);
    while (inputs.size() < fan_in) {
      const ObjectId id = 1 + rng.NextBelow(shape.objects);
      if (std::find(inputs.begin(), inputs.end(), id) == inputs.end()) {
        inputs.push_back(id);
      }
    }
    std::sort(inputs.begin(), inputs.end());
    IngestRequest request;
    request.op = OperationType::kAggregate;
    request.object = shape.objects + 1 + a;
    provenance::SeqId max_seq = 0;
    for (ObjectId in : inputs) {
      const auto chain = pipeline.store().ChainRecords(in);
      request.inputs.push_back(ObjectState{in, last[in - 1]});
      request.input_prev_checksums.push_back(chain.back()->checksum);
      max_seq = std::max(max_seq, chain.back()->seq_id);
    }
    request.aggregate_seq = max_seq + 1;
    request.post_hash = RandomDigest(&rng);
    last.push_back(request.post_hash);
    submit(std::move(request));
  }
  Check(pipeline.CheckpointNow(), "recover_audit checkpoint");
  for (size_t i = 0; i < shape.suffix_updates; ++i) {
    update(1 + rng.NextBelow(last.size()));
  }
  Check(pipeline.Close(), "recover_audit close");
  return records;
}

/// Self-test hook: flips one byte in the middle of the largest file whose
/// name contains `kind` ("wal-" or "checkpoint-").
void FlipByte(const std::string& root, const std::string& kind) {
  namespace fs = std::filesystem;
  fs::path target;
  uintmax_t size = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().find(kind) != std::string::npos &&
        entry.file_size() > size) {
      target = entry.path();
      size = entry.file_size();
    }
  }
  if (target.empty()) {
    std::fprintf(stderr, "perfbench: no %s file to tamper with\n",
                 kind.c_str());
    std::exit(1);
  }
  std::fstream file(target, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(size / 2));
  file.put(static_cast<char>(byte ^ 0x5A));
  std::printf("tamper: flipped byte %ju of %s\n", size / 2,
              target.string().c_str());
}

}  // namespace

Outcome RunRecoverAudit(const Config& config, const Pki& pki) {
  Outcome out;
  RecoverShape shape{};
  shape.objects = 1800;
  shape.updates = 900;
  shape.aggregates = 520;
  shape.suffix_updates = 240;
  shape.checkpoint_every = 400;
  shape.setups = 3;
  if (config.tiny) {
    shape = RecoverShape{120, 60, 36, 20, 40, 2};
  }
  const IngestOptions options = StoreOptions(pki, shape.checkpoint_every);
  const std::string pristine = config.work_dir + "/recover-pristine";
  const std::string live = config.work_dir + "/recover-live";

  std::vector<double> setup_s;
  uint64_t expected = 0;
  for (size_t rep = 0; rep < shape.setups; ++rep) {
    const int64_t t0 = NowNs();
    expected = BuildStore(shape, options, pki, config.seed, pristine);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  if (config.tamper == "wal") FlipByte(pristine, "wal-");
  if (config.tamper == "checkpoint") FlipByte(pristine, "checkpoint-");
  const double disk_bytes = static_cast<double>(DirBytes(pristine));

  const provenance::ProvenanceVerifier verifier(
      pki.registry.get(), crypto::HashAlgorithm::kSha1,
      ParallelismConfig{static_cast<int>(DriverThreads())});

  // Measured cycles. The traced run alternates untraced and traced
  // cycles; their medians give the tracing overhead.
  std::vector<double> cycle_us, recover_us, audit_us;
  std::vector<double> cycle_by_phase[2];
  Ledger ledger;
  ledger.Begin();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  uint64_t cycles = 0;
  while (NowNs() < deadline || cycles == 0) {
    const bool traced = config.trace && cycles % 2 == 1;
    Spans::SetEnabled(traced);
    CopyTree(pristine, live);
    ++out.attempted;
    const uint64_t rid = ++cycles;
    ScopedSpan cycle_span("bench.recover_audit_cycle", rid);
    const int64_t t0 = NowNs();
    std::optional<Result<std::unique_ptr<IngestPipeline>>> opened;
    {
      ScopedSpan span("provenance.ingest_pipeline_open", rid);
      opened.emplace(
          IngestPipeline::Open(storage::Env::Default(), live, options));
    }
    const int64_t t1 = NowNs();
    if (!opened->ok()) {
      ++out.failed;
      out.Fail("recovery: " + opened->status().ToString());
      break;
    }
    IngestPipeline& pipeline = ***opened;
    provenance::StoreSnapshot snapshot;
    {
      ScopedSpan span("provenance.open_snapshot", rid);
      snapshot = pipeline.OpenSnapshot();
    }
    provenance::VerificationReport report;
    {
      ScopedSpan span("provenance.verify_store", rid);
      report = verifier.VerifyStore(snapshot);
    }
    const int64_t t2 = NowNs();
    cycle_us.push_back((t2 - t0) / 1e3);
    recover_us.push_back((t1 - t0) / 1e3);
    audit_us.push_back((t2 - t1) / 1e3);
    cycle_by_phase[traced].push_back((t2 - t0) / 1e3);
    if (!report.ok() || report.records_checked != expected ||
        pipeline.store().record_count() != expected) {
      ++out.failed;
      out.Fail("recovered store holds " +
               std::to_string(pipeline.store().record_count()) +
               " records, verified " +
               std::to_string(report.records_checked) + " with " +
               std::to_string(report.issues.size()) + " issues; " +
               std::to_string(expected) + " were ingested");
      break;
    }
    Spans::SetEnabled(false);
    snapshot = provenance::StoreSnapshot();
    Check(pipeline.Close(), "recovered close");
  }
  Spans::SetEnabled(false);
  ledger.End();
  const double peak_rss = PeakRssMb();

  Report& r = out.report;
  const LatencySummary cycle = Summarize(cycle_us, 0.95);
  const double recover_s = Median(recover_us) / 1e6;
  const double audit_s = Median(audit_us) / 1e6;
  const double n = static_cast<double>(expected);
  r.Add("ops_per_s", Ratio(n, cycle.p50 / 1e6), "1/s",
        "records recovered and verified per second of a median cycle");
  char note[96];
  std::snprintf(note, sizeof(note), "recover+audit cycle, n=%zu", cycle.n);
  r.Add("p50_ms", cycle.p50 / 1e3, "ms", note);
  std::snprintf(note, sizeof(note), "p95 cycle, n=%zu beyond=%zu", cycle.n,
                cycle.beyond);
  r.Add("tail_ms", cycle.tail / 1e3, "ms", note);
  r.Add("recover_s", recover_s, "s", "median IngestPipeline::Open");
  r.Add("audit_rps", Ratio(n, audit_s), "1/s",
        "records / median OpenSnapshot+VerifyStore");
  r.Add("disk_bytes_per_record", Ratio(disk_bytes, n), "B/record");
  r.Add("failed_ratio",
        Ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted)),
        "ratio");
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("peak_rss_mb", peak_rss, "MB");
  AddLayerMetrics(&r, ledger, 0);

  if (config.trace && out.correct) {
    // Replay: the per-chain read path behind VerifyStore, one span per
    // public call, over the first chains of a recovered store.
    CopyTree(pristine, live);
    auto opened = IngestPipeline::Open(storage::Env::Default(), live, options);
    Check(opened.status(), "replay open");
    Spans::SetEnabled(true);
    const provenance::ChecksumEngine engine;
    provenance::StoreSnapshot snapshot;
    {
      ScopedSpan span("provenance.open_snapshot", 0);
      snapshot = (*opened)->OpenSnapshot();
    }
    for (ObjectId id = 1; id <= kReplayChains; ++id) {
      const uint64_t rid = (uint64_t{1} << 56) + id;
      ScopedSpan root_span("bench.replay_chain", rid);
      std::map<ObjectId, std::vector<const provenance::ProvenanceRecord*>>
          chains;
      {
        ScopedSpan span("provenance.chain_records", rid);
        chains.emplace(id, snapshot.ChainRecords(id));
      }
      provenance::VerificationReport report;
      ScopedSpan span("provenance.verify_record_chains", rid);
      provenance::VerifyRecordChains(*pki.registry, engine, chains, &report,
                                     nullptr);
    }
    Spans::SetEnabled(false);
    snapshot = provenance::StoreSnapshot();
    Check((*opened)->Close(), "replay close");
    const double untraced = Median(cycle_by_phase[0]);
    const double traced = Median(cycle_by_phase[1]);
    AddTraceMetrics(&r, Spans::Collect(), (Ratio(traced, untraced) - 1) * 100);
  }
  RemoveTree(live);
  RemoveTree(pristine);
  return out;
}

}  // namespace perfbench
