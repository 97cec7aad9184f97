// Parallel verification & audit (§3.2): the paper's checksum chains are
// per-object and local precisely so that "chains can be verified in
// parallel". This harness measures that claim on the Table-1 synthetic
// databases: chain verification (check 2), the store-wide audit, and the
// parallel basic subtree hash, each at 1/2/4/8 threads against the
// sequential baseline — asserting along the way that every parallel
// report/digest is identical to the sequential one.
//
// Flags:
//   --dataset=N    cumulative Table-1 combination 1..4 (default 4, largest)
//   --updates=N    tracked cell updates seeding the chains (default 400)
//   --runs=N       timed repetitions per configuration (default 5)
//   --rsa-bits=N   participant key size (default 1024, paper-faithful)

#include <map>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "provenance/auditor.h"
#include "provenance/subtree_hasher.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "workload/synthetic.h"

namespace provdb::bench {
namespace {

using provenance::ProvenanceRecord;
using storage::ObjectId;

struct TimedResult {
  RunningStats stats;
  std::string report;  // rendering of the last run's outcome
};

void PrintRow(int threads, const TimedResult& result, double baseline_mean) {
  std::printf("  %7d %s   %5.2fx\n", threads, FormatMs(result.stats).c_str(),
              result.stats.mean() > 0 ? baseline_mean / result.stats.mean()
                                      : 0.0);
}

int Run(const Flags& flags) {
  const int dataset = static_cast<int>(flags.GetInt("dataset", 4));
  const size_t updates = static_cast<size_t>(flags.GetInt("updates", 400));
  const int runs = static_cast<int>(flags.GetInt("runs", 5));
  const size_t rsa_bits = static_cast<size_t>(flags.GetInt("rsa-bits", 1024));
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  PrintHeader("Parallel chain verification & audit",
              "§3.2 (local chains verify in parallel), Table 1 datasets");

  // -- Setup: tracked Table-1 database with per-cell update chains -------
  const auto& all_specs = workload::PaperTableSpecs();
  if (dataset < 1 || static_cast<size_t>(dataset) > all_specs.size()) {
    std::fprintf(stderr, "--dataset must be in 1..%zu (got %d)\n",
                 all_specs.size(), dataset);
    return 1;
  }
  BenchPki pki = BenchPki::Create(rsa_bits);
  provenance::TrackedDatabase db;
  std::vector<workload::SyntheticTableSpec> specs(
      all_specs.begin(), all_specs.begin() + dataset);
  Rng rng(7);
  auto layout = workload::BuildSyntheticDatabase(&db.bootstrap_tree(), specs,
                                                 &rng);
  if (!layout.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 layout.status().ToString().c_str());
    return 1;
  }

  std::printf("\ndataset: tables 1..%zu (%zu nodes), %zu cell updates, "
              "RSA-%zu\n",
              specs.size(), db.tree().size(), updates, rsa_bits);
  Stopwatch setup;
  for (size_t u = 0; u < updates; ++u) {
    // Round-robin across tables and rows so chains spread over the whole
    // database (distinct cells -> independent per-object chains).
    const auto& table = layout->tables[u % layout->tables.size()];
    ObjectId row = table.rows[(u / layout->tables.size()) % table.rows.size()];
    size_t column = u % static_cast<size_t>(table.num_attributes);
    auto cell = workload::CellIdOf(db.tree(), row, column);
    if (!cell.ok()) {
      std::fprintf(stderr, "cell lookup failed: %s\n",
                   cell.status().ToString().c_str());
      return 1;
    }
    Status updated = db.Update(*pki.participant, *cell,
                               storage::Value::Int(static_cast<int64_t>(u)));
    if (!updated.ok()) {
      std::fprintf(stderr, "update failed: %s\n", updated.ToString().c_str());
      return 1;
    }
  }
  std::printf("seeded %llu records in %.1fs\n",
              static_cast<unsigned long long>(db.provenance().record_count()),
              setup.ElapsedSeconds());

  // Per-object chains, exactly as the auditor groups them.
  const provenance::StoreSnapshot snapshot =
      db.provenance().QuiescentSnapshot();
  const std::map<ObjectId, std::vector<const ProvenanceRecord*>> chains =
      snapshot.AllChains();
  std::printf("%zu independent chains\n", chains.size());
  const provenance::ChecksumEngine engine;

  // -- (a) Chain verification (check 2 only) -----------------------------
  std::printf("\n(a) chain verification, %d runs        mean +- ci95 (ms)  "
              "speedup\n", runs);
  std::string chain_baseline;
  double chain_baseline_mean = 0;
  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    TimedResult result;
    for (int r = 0; r < runs; ++r) {
      provenance::VerificationReport report;
      Stopwatch timer;
      VerifyRecordChains(*pki.registry, engine, chains, &report, pool.get());
      result.stats.Add(timer.ElapsedSeconds());
      result.report = report.ToString();
    }
    if (threads == 1) {
      chain_baseline = result.report;
      chain_baseline_mean = result.stats.mean();
    } else if (result.report != chain_baseline) {
      std::fprintf(stderr, "FAIL: %d-thread report differs from sequential\n",
                   threads);
      return 1;
    }
    PrintRow(threads, result, chain_baseline_mean);
  }

  // -- (b) Store-wide audit (check 2 + in-place check 1) -----------------
  std::printf("\n(b) store audit, %d runs               mean +- ci95 (ms)  "
              "speedup\n", runs);
  std::string audit_baseline;
  double audit_baseline_mean = 0;
  for (int threads : thread_counts) {
    provenance::StoreAuditor auditor(pki.registry.get(),
                                     crypto::HashAlgorithm::kSha1,
                                     ParallelismConfig{threads});
    TimedResult result;
    for (int r = 0; r < runs; ++r) {
      Stopwatch timer;
      provenance::VerificationReport report =
          auditor.Audit(snapshot, db.tree());
      result.stats.Add(timer.ElapsedSeconds());
      result.report = report.ToString();
    }
    if (threads == 1) {
      audit_baseline = result.report;
      audit_baseline_mean = result.stats.mean();
    } else if (result.report != audit_baseline) {
      std::fprintf(stderr, "FAIL: %d-thread audit differs from sequential\n",
                   threads);
      return 1;
    }
    PrintRow(threads, result, audit_baseline_mean);
  }
  std::printf("  audit outcome: %s\n", audit_baseline.c_str());

  // -- (c) Parallel basic subtree hash (fan-out over children) -----------
  // The largest table has thousands of row children — the embarrassingly
  // parallel case; the database root has only `dataset` table children.
  const auto& big_table = layout->tables.front();
  provenance::SubtreeHasher hasher(&db.tree());
  std::printf("\n(c) basic hash of table subtree, %d runs  mean +- ci95 (ms) "
              " speedup\n", runs);
  crypto::Digest hash_baseline;
  double hash_baseline_mean = 0;
  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    TimedResult result;
    crypto::Digest digest;
    for (int r = 0; r < runs; ++r) {
      Stopwatch timer;
      auto hashed = hasher.HashSubtreeBasic(big_table.table_id, pool.get());
      result.stats.Add(timer.ElapsedSeconds());
      if (!hashed.ok()) {
        std::fprintf(stderr, "hash failed: %s\n",
                     hashed.status().ToString().c_str());
        return 1;
      }
      digest = *hashed;
    }
    if (threads == 1) {
      hash_baseline = digest;
      hash_baseline_mean = result.stats.mean();
    } else if (!(digest == hash_baseline)) {
      std::fprintf(stderr, "FAIL: %d-thread digest differs from sequential\n",
                   threads);
      return 1;
    }
    PrintRow(threads, result, hash_baseline_mean);
  }

  std::printf("\nAll parallel reports and digests are identical to the "
              "sequential baselines.\n");
  return 0;
}

}  // namespace
}  // namespace provdb::bench

int main(int argc, char** argv) {
  provdb::observability::InitTraceFromEnv();
  provdb::bench::Flags flags(argc, argv);
  int rc = provdb::bench::Run(flags);
  provdb::bench::EmitMetricsSnapshot();
  return rc;
}
