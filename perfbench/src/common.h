#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the ProvDB benchmark: exact latency samples, the
// benchmark's own span recorder, registry-delta ledgers, the report that
// ends in the one-line JSON result, and the PKI every workload signs with.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crypto/digest.h"
#include "crypto/pki.h"
#include "crypto/signer.h"
#include "observability/metrics.h"
#include "provenance/ingest_pipeline.h"

namespace perfbench {

using namespace provdb;  // NOLINT: the benchmark drives every layer

// -- Command line -----------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root for stores; removed before the process exits.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string out_dir;
  /// Shrinks every population and the set-up repetitions (self-test).
  bool tiny = false;
  /// Self-test only: "wal" or "checkpoint" flips one byte of that file in
  /// the closed recover_audit store before the measured part.
  std::string tamper;
};

// -- Time, memory, files ----------------------------------------------

int64_t NowNs();
/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();
/// Bytes of every regular file under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);
void RemoveTree(const std::string& dir);
/// Empties `dir`, creating it (and its parents) when missing.
void ResetDir(const std::string& dir);
void CopyTree(const std::string& from, const std::string& to);
/// Aborts the run with `what` when `s` is not OK (set-up must not skew
/// numbers silently).
void Check(const Status& s, const char* what);

// -- Exact latency samples --------------------------------------------

/// Median and a fixed tail percentile over exact per-request samples.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_q = 0;
  /// Samples strictly beyond the tail's rank.
  size_t beyond = 0;
  double sum = 0;
};
LatencySummary Summarize(std::vector<double> samples, double tail_q);

double Median(std::vector<double> values);

// -- Spans ------------------------------------------------------------

/// In-memory spans recorded by the benchmark around its calls into a
/// layer's public API. The layer is the span name's prefix up to the
/// first '.', so self time aggregates per module (net, provenance,
/// storage, crypto, common) plus `bench` for the benchmark's own roots.
/// Spans of one request share `request`; `parent` is the span open on
/// the same thread when this one started.
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  uint32_t thread;
  int64_t start_ns;
  int64_t end_ns;
};

class Spans {
 public:
  /// Recording is off until enabled; a disabled ScopedSpan reads no clock.
  static void SetEnabled(bool on);
  static bool enabled();
  /// Every recorded span, across threads (call once threads are joined).
  static std::vector<Span> Collect();
  static void WriteJsonl(const std::string& path);
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  Span span_{};
};

// -- Registry ledger --------------------------------------------------

/// Registry deltas between two snapshots taken at a workload's start and
/// end, so no counter leaks in from set-up or checks.
class Ledger {
 public:
  void Begin();
  void End();
  uint64_t counter(const std::string& name) const;
  uint64_t hist_count(const std::string& name) const;
  uint64_t hist_sum_us(const std::string& name) const;
  /// hist_sum / hist_count, 0 when nothing was recorded.
  double hist_mean_us(const std::string& name) const;

 private:
  observability::MetricsSnapshot before_, after_;
};

/// a / b, 0 when b is 0.
double Ratio(double a, double b);

// -- Report -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Collects every metric a workload measured. Named metrics print as
///   metric <name> <value> <unit> [note]
/// lines; the end-to-end or per-layer subset goes into the final JSON
/// line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void PrintLines() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} restricted
  /// to `names`, in that order.
  std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& names) const;

 private:
  struct Entry {
    Metric metric;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Exact-sample latency metrics: <prefix>_p50_ms and <prefix>_p99_ms (or
/// the requested tail), each with its sample count.
void AddLatency(Report* report, const std::string& prefix,
                const LatencySummary& s);

// -- PKI --------------------------------------------------------------

/// A CA and four RSA-1024 participants (ids 1..4), generated from a fixed
/// seed: key material is not a workload input, and fixed keys keep
/// prime-search time out of the run-to-run spread.
struct Pki {
  std::unique_ptr<crypto::CertificateAuthority> ca;
  std::vector<std::unique_ptr<crypto::Participant>> participants;
  std::unique_ptr<crypto::ParticipantRegistry> registry;
  /// Verifies checkpoint seals, which participant 1 signs.
  std::unique_ptr<crypto::RsaSignatureVerifier> seal_verifier;

  static std::unique_ptr<Pki> Create();
  const crypto::Participant* participant(size_t i) const {
    return participants[i % participants.size()].get();
  }
};

inline constexpr size_t kRsaBits = 1024;
inline constexpr size_t kParticipants = 4;
inline constexpr size_t kShards = 4;

/// Driver threads and connections: 4, or fewer on a smaller machine.
size_t DriverThreads();

/// Pipeline options every workload's store uses: 4 shards, signing on a
/// hardware-sized pool, group commit, and a checkpoint sealed by
/// participant 1 every `checkpoint_every` records per shard.
provenance::IngestOptions StoreOptions(const Pki& pki,
                                       uint64_t checkpoint_every);

/// A random SHA-1-sized state hash.
crypto::Digest RandomDigest(Rng* rng);

// -- Workloads --------------------------------------------------------

/// What a workload hands back to main.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every named metric of the run (end-to-end, ledger, trace).
  Report report;
  /// First failing check, for the log.
  std::string failure;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

Outcome RunIngestWire(const Config& config, const Pki& pki);
Outcome RunAuditMixed(const Config& config, const Pki& pki);
Outcome RunRecoverAudit(const Config& config, const Pki& pki);

/// Ledger-derived per-layer metrics every workload reports (zeros where
/// the workload does not exercise the layer).
void AddLayerMetrics(Report* report, const Ledger& ledger,
                     double client_rtt_sum_us);
/// Trace-derived per-layer metrics (zeros outside the traced run).
void AddTraceMetrics(Report* report, const std::vector<Span>& spans,
                     double overhead_pct);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
