#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>


namespace perfbench {

namespace fs = std::filesystem;

// -- Time, memory, files ----------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void ResetDir(const std::string& dir) {
  RemoveTree(dir);
  fs::create_directories(dir);
}

void CopyTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(1);
  }
}

// -- Exact latency samples --------------------------------------------

namespace {

/// Nearest-rank quantile of `sorted` (ascending), q in (0, 1].
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

}  // namespace

LatencySummary Summarize(std::vector<double> samples, double tail_q) {
  LatencySummary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  s.tail_q = tail_q;
  if (s.n == 0) return s;
  s.p50 = Quantile(samples, 0.5);
  s.tail = Quantile(samples, tail_q);
  const size_t rank = static_cast<size_t>(std::ceil(tail_q * s.n));
  s.beyond = s.n - std::min(rank, s.n);
  for (double v : samples) s.sum += v;
  return s;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// -- Spans ------------------------------------------------------------

namespace {

std::atomic<bool> g_spans_on{false};
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint32_t> g_next_thread{0};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<std::vector<Span>>>;
  return *buffers;
}

struct ThreadSpans {
  std::vector<Span>* buffer = nullptr;
  uint32_t thread = 0;
  std::vector<uint64_t> open;  // ids of live spans, innermost last
};

ThreadSpans& Local() {
  thread_local ThreadSpans local;
  if (local.buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 14);
    local.buffer = buffer.get();
    local.thread = g_next_thread.fetch_add(1);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(buffer));
  }
  return local;
}

}  // namespace

void Spans::SetEnabled(bool on) { g_spans_on.store(on); }
bool Spans::enabled() { return g_spans_on.load(std::memory_order_relaxed); }

std::vector<Span> Spans::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

void Spans::WriteJsonl(const std::string& path) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : Collect()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << "}\n";
  }
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : on_(Spans::enabled()) {
  if (!on_) return;
  ThreadSpans& local = Local();
  span_.name = name;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = local.open.empty() ? 0 : local.open.back();
  span_.request = request;
  span_.thread = local.thread;
  local.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = NowNs();
  ThreadSpans& local = Local();
  local.open.pop_back();
  local.buffer->push_back(span_);
}

namespace {

/// Per span name: count, total and self time (duration minus the part
/// covered by child spans).
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  double mean_us() const { return count == 0 ? 0 : total_us / count; }
};

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::map<uint64_t, double> child_us;  // parent id -> covered time
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += (s.end_ns - s.start_ns) / 1e3;
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    const double dur = (s.end_ns - s.start_ns) / 1e3;
    ++t.count;
    t.total_us += dur;
    auto it = child_us.find(s.id);
    t.self_us += dur - (it == child_us.end() ? 0 : it->second);
  }
  return totals;
}

/// Self time per layer (span name prefix), milliseconds.
std::map<std::string, double> SelfMsByLayer(const std::vector<Span>& spans) {
  std::map<std::string, double> layers;
  for (const auto& [name, totals] : TotalsByName(spans)) {
    layers[name.substr(0, name.find('.'))] += totals.self_us / 1e3;
  }
  return layers;
}

}  // namespace

// -- Registry ledger --------------------------------------------------

namespace {

uint64_t CounterIn(const observability::MetricsSnapshot& snap,
                   const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

const observability::HistogramSnapshot* HistIn(
    const observability::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

void Ledger::Begin() { before_ = observability::GlobalMetrics().Snapshot(); }
void Ledger::End() { after_ = observability::GlobalMetrics().Snapshot(); }

uint64_t Ledger::counter(const std::string& name) const {
  return CounterIn(after_, name) - CounterIn(before_, name);
}

uint64_t Ledger::hist_count(const std::string& name) const {
  const auto* a = HistIn(after_, name);
  const auto* b = HistIn(before_, name);
  return (a ? a->count : 0) - (b ? b->count : 0);
}

uint64_t Ledger::hist_sum_us(const std::string& name) const {
  const auto* a = HistIn(after_, name);
  const auto* b = HistIn(before_, name);
  return (a ? a->sum_micros : 0) - (b ? b->sum_micros : 0);
}

double Ledger::hist_mean_us(const std::string& name) const {
  return Ratio(static_cast<double>(hist_sum_us(name)),
               static_cast<double>(hist_count(name)));
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// -- Report -----------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  entries_.push_back(Entry{Metric{name, value, unit}, note});
}

void Report::PrintLines() const {
  for (const Entry& e : entries_) {
    std::printf("metric %-40s %16.6f %-10s %s\n", e.metric.name.c_str(),
                e.metric.value, e.metric.unit.c_str(), e.note.c_str());
  }
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<std::string>& names) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Entry* found = nullptr;
    for (const Entry& e : entries_) {
      if (e.metric.name == names[i]) found = &e;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s was never measured\n",
                   names[i].c_str());
      std::abort();
    }
    out << (i ? ", " : "") << "\"" << names[i] << "\": {\"value\": "
        << found->metric.value << ", \"unit\": \"" << found->metric.unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void AddLatency(Report* report, const std::string& prefix,
                const LatencySummary& s) {
  char note[96];
  std::snprintf(note, sizeof(note), "n=%zu", s.n);
  report->Add(prefix + "_p50_ms", s.p50 / 1e3, "ms", note);
  std::snprintf(note, sizeof(note), "n=%zu beyond=%zu", s.n, s.beyond);
  char name[32];
  std::snprintf(name, sizeof(name), "_p%g_ms", s.tail_q * 100);
  report->Add(prefix + name, s.tail / 1e3, "ms", note);
}

// -- PKI --------------------------------------------------------------

std::unique_ptr<Pki> Pki::Create() {
  Rng rng(0x5E17E5);
  auto pki = std::make_unique<Pki>();
  auto ca = crypto::CertificateAuthority::Create(kRsaBits, &rng);
  Check(ca.status(), "CA key generation");
  pki->ca = std::make_unique<crypto::CertificateAuthority>(std::move(*ca));
  pki->registry =
      std::make_unique<crypto::ParticipantRegistry>(pki->ca->public_key());
  for (size_t i = 1; i <= kParticipants; ++i) {
    auto p = crypto::Participant::Create(i, "participant-" + std::to_string(i),
                                         kRsaBits, &rng, *pki->ca);
    Check(p.status(), "participant key generation");
    pki->participants.push_back(
        std::make_unique<crypto::Participant>(std::move(*p)));
    Check(pki->registry->Register(pki->participants.back()->certificate()),
          "participant registration");
  }
  pki->seal_verifier = std::make_unique<crypto::RsaSignatureVerifier>(
      pki->participants[0]->public_key());
  return pki;
}

size_t DriverThreads() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hw == 0 ? 1 : hw));
}

provenance::IngestOptions StoreOptions(const Pki& pki,
                                       uint64_t checkpoint_every) {
  provenance::IngestOptions options;
  options.num_shards = kShards;
  options.signing = ParallelismConfig::Hardware();
  options.checkpoint.every_records = checkpoint_every;
  options.checkpoint.signer = &pki.participant(0)->signer();
  options.checkpoint.sealer_id = pki.participant(0)->id();
  options.checkpoint.verifier = pki.seal_verifier.get();
  return options;
}

crypto::Digest RandomDigest(Rng* rng) {
  Bytes raw;
  rng->NextBytes(&raw, 20);
  return crypto::Digest::FromBytes(raw);
}

// -- Per-layer metrics ------------------------------------------------

void AddLayerMetrics(Report* report, const Ledger& l,
                     double client_rtt_sum_us) {
  const double sigs_ok = static_cast<double>(l.counter("verify.signatures.ok"));
  report->Add("crypto.sign_us", l.hist_mean_us("checksum.sign.latency_us"),
              "us");
  report->Add("crypto.signs",
              static_cast<double>(l.counter("checksum.sign.count")), "count");
  report->Add(
      "crypto.verify_us",
      Ratio(static_cast<double>(l.hist_sum_us("verify.chain.latency_us")),
            sigs_ok),
      "us", "chain-verify time per verified signature");
  report->Add(
      "crypto.contexts_per_signature",
      Ratio(static_cast<double>(l.counter("crypto.bignum.montgomery_contexts")),
            sigs_ok),
      "ratio");
  report->Add("storage.fsyncs", static_cast<double>(l.counter("wal.syncs")),
              "count");
  report->Add("storage.fsync_us", l.hist_mean_us("wal.sync.latency_us"), "us");
  report->Add("storage.wal_bytes_per_record",
              Ratio(static_cast<double>(l.counter("wal.append_bytes")),
                    static_cast<double>(l.counter("wal.appends"))),
              "B/record");
  report->Add("storage.wal_replay_records",
              static_cast<double>(l.counter("wal.recovery.records")), "count");
  report->Add("provenance.records_per_fsync",
              Ratio(static_cast<double>(l.counter("ingest.committed")),
                    static_cast<double>(l.counter("wal.syncs"))),
              "ratio");
  report->Add("provenance.drain_us", l.hist_mean_us("ingest.drain.latency_us"),
              "us");
  report->Add("provenance.checkpoint_us",
              l.hist_mean_us("checkpoint.write.latency_us"), "us");
  report->Add("provenance.checkpoint_bytes_per_record",
              Ratio(static_cast<double>(l.counter("checkpoint.write.bytes")),
                    static_cast<double>(l.counter("checkpoint.write.records"))),
              "B/record");
  report->Add("provenance.checkpoint_load_us",
              l.hist_mean_us("checkpoint.load.latency_us"), "us");
  report->Add(
      "net.server_share",
      Ratio(static_cast<double>(l.hist_sum_us("server.request.latency")),
            client_rtt_sum_us),
      "ratio", "server.request.latency sum / client RTT sum");
  report->Add("net.shed",
              static_cast<double>(l.counter("server.requests.shed")), "count");
  report->Add("common.epoch_retired",
              static_cast<double>(l.counter("epoch.retired")), "count");

  // The raw deltas behind the ratios above, for attribution by hand.
  for (const char* name :
       {"wal.syncs", "wal.appends", "wal.append_bytes", "checksum.sign.count",
        "ingest.committed", "ingest.batches", "checkpoint.writes",
        "checkpoint.write.bytes", "checkpoint.loads", "verify.signatures.ok",
        "verify.chains", "crypto.bignum.montgomery_contexts",
        "server.requests.received", "server.requests.shed",
        "server.records.committed", "epoch.retired", "epoch.reclaimed",
        "wal.recovery.records"}) {
    report->Add(std::string("ledger.") + name,
                static_cast<double>(l.counter(name)), "count");
  }
}

void AddTraceMetrics(Report* report, const std::vector<Span>& spans,
                     double overhead_pct) {
  const auto totals = TotalsByName(spans);
  auto mean = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.mean_us();
  };
  auto total = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us;
  };
  auto count = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  report->Add("storage.wal_append_us", mean("storage.wal_append"), "us");
  report->Add("provenance.submit_us", mean("provenance.submit"), "us");
  report->Add("provenance.snapshot_open_us", mean("provenance.open_snapshot"),
              "us");
  report->Add("provenance.chain_records_us", mean("provenance.chain_records"),
              "us");
  report->Add("provenance.verify_chain_us",
              mean("provenance.verify_record_chains"), "us");
  report->Add("net.codec_us",
              Ratio(total("net.encode") + total("net.decode"),
                    count("net.encode")),
              "us", "encode + decode per replayed request");
  report->Add("trace.overhead_pct", overhead_pct, "%",
              "traced against untraced end-to-end");
  const auto layers = SelfMsByLayer(spans);
  for (const char* layer : {"net", "provenance", "storage", "bench"}) {
    auto it = layers.find(layer);
    report->Add(std::string(layer) + ".self_ms",
                it == layers.end() ? 0.0 : it->second, "ms");
  }
  report->Add("trace.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace perfbench
