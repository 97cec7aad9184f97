// ProvDB benchmark binary.
//
//   provdb_perfbench --workload <ingest_wire|audit_mixed|recover_audit>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --dir <scratch> --out <trace dir> [--tiny]
//                    [--tamper wal|checkpoint]
//
// Prints one `metric <name> <value> <unit> [note]` line per measured
// metric, then, as the last line, one JSON object: with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer ones.
// Exits 1 when any correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

/// The result line's metric sets (BENCHMARK.json lists the same names).
const std::vector<std::string> kEndToEnd = {
    "ops_per_s", "p50_ms", "tail_ms", "disk_bytes_per_record", "peak_rss_mb",
    "setup_s"};
const std::vector<std::string> kPerLayer = {
    "crypto.sign_us",
    "crypto.signs",
    "crypto.verify_us",
    "crypto.contexts_per_signature",
    "storage.fsyncs",
    "storage.fsync_us",
    "storage.wal_append_us",
    "storage.wal_bytes_per_record",
    "storage.wal_replay_records",
    "provenance.records_per_fsync",
    "provenance.drain_us",
    "provenance.submit_us",
    "provenance.checkpoint_us",
    "provenance.checkpoint_bytes_per_record",
    "provenance.snapshot_open_us",
    "provenance.chain_records_us",
    "provenance.verify_chain_us",
    "provenance.checkpoint_load_us",
    "net.codec_us",
    "net.server_share",
    "net.shed",
    "common.epoch_retired",
    "trace.overhead_pct",
    "net.self_ms",
    "provenance.self_ms",
    "storage.self_ms",
    "bench.self_ms",
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: provdb_perfbench --workload "
               "<ingest_wire|audit_mixed|recover_audit> --seed N --seconds S "
               "--trace 0|1 --dir DIR --out DIR [--tiny] "
               "[--tamper wal|checkpoint]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--dir") {
      config.work_dir = value();
    } else if (arg == "--out") {
      config.out_dir = value();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--tamper") {
      config.tamper = value();
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.work_dir.empty() || config.out_dir.empty()) {
    return Usage("--dir and --out are required");
  }
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  Outcome (*run)(const Config&, const Pki&) = nullptr;
  if (config.workload == "ingest_wire") run = RunIngestWire;
  if (config.workload == "audit_mixed") run = RunAuditMixed;
  if (config.workload == "recover_audit") run = RunRecoverAudit;
  if (run == nullptr) return Usage("unknown workload");
  if (!config.tamper.empty() && config.workload != "recover_audit") {
    return Usage("--tamper applies to recover_audit only");
  }

  ResetDir(config.work_dir);
  const std::unique_ptr<Pki> pki = Pki::Create();
  Outcome outcome = run(config, *pki);
  RemoveTree(config.work_dir);

  if (config.trace) {
    const std::string path = config.out_dir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    Spans::WriteJsonl(path);
    std::printf("trace: spans written to %s\n", path.c_str());
  }
  outcome.report.PrintLines();
  if (!outcome.correct) {
    std::printf("check FAILED: %s\n", outcome.failure.c_str());
  }
  std::printf("%s\n",
              outcome.report
                  .ResultJson(outcome.correct, outcome.attempted,
                              outcome.failed,
                              config.trace ? kPerLayer : kEndToEnd)
                  .c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
