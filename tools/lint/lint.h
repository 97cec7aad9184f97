#ifndef PROVDB_TOOLS_LINT_LINT_H_
#define PROVDB_TOOLS_LINT_LINT_H_

// provdb-lint: project-specific static analysis for the determinism and
// checked-verification invariants the compiler cannot enforce.
//
// ProvDB's tamper-evidence (paper §3–§4) rests on two properties:
//
//   1. every byte fed into a checksum or subtree hash is canonical and
//      deterministic — a digest that depends on unordered_map iteration
//      order or wall-clock time silently breaks requirements R1–R4, and
//   2. every Status / verification result is actually inspected — an
//      ignored Verify/Audit return is an undetected tamper.
//
// The compile-time half of (2) is the [[nodiscard]] sweep; this linter
// covers the patterns the type system cannot see. Rules:
//
//   R01 nondet-iteration   no unordered_map/unordered_set iteration in
//                          src/crypto/ or src/provenance/ (hash inputs
//                          must not depend on hash-table order)
//   R02 banned-randomness  no rand()/time()/std::random_device etc.
//                          outside src/common/rng.* (reproducible
//                          workloads, deterministic digests)
//   R03 raw-thread         no std::thread/std::async outside
//                          src/common/thread_pool.* (all parallelism
//                          goes through the deterministic-merge pool)
//   R04 ct-memcmp          no memcmp in src/crypto/ or src/provenance/
//                          (digest/MAC equality must be constant time:
//                          common/bytes.h ConstantTimeEqual)
//   R05 no-test            every .cc under src/ has a matching
//                          <stem>_test.cc or is #included-referenced by
//                          a test file
//   R06 raw-file-io        no fopen/rename/fstream in src/ outside
//                          src/storage/env.* (persistence must go
//                          through storage::Env so the durability
//                          protocol and fault-injection hooks apply)
//   R07 adhoc-chrono       no direct std::chrono in src/ outside
//                          src/common/stopwatch.* and
//                          src/observability/ (durations go through
//                          Stopwatch or a metrics histogram, so timing
//                          is visible to observability and wall-clock
//                          types stay out of deterministic code)
//   R08 unannotated-mutex  every mutex declared in src/ must have a
//                          PROVDB_GUARDED_BY / PROVDB_REQUIRES user in
//                          the same file — an unannotated mutex guards
//                          nothing the clang -Wthread-safety tier can
//                          check (common/thread_annotations.h)
//   R09 io-under-lock      no blocking file call (Sync/Flush/Append/
//                          Rename) lexically inside a live lock_guard/
//                          unique_lock/scoped_lock/MutexLock scope, or
//                          anywhere in the body of a function declared
//                          PROVDB_REQUIRES(...) (its caller holds the
//                          lock); exempt: src/storage/env.* and the
//                          fault-injection env (sanctioned I/O layer)
//   R10 naked-lock         no manual .lock()/.unlock()/.try_lock()
//                          member calls; critical sections use RAII
//                          guards so early returns cannot leak a lock.
//                          Exempt: src/common/thread_pool.* and
//                          thread_annotations.h (the lock plumbing)
//
// Any finding can be suppressed with a pragma on the offending line or
// the line above it:   // lint:allow <rule>   where <rule> is the id
// ("R04") or the name ("ct-memcmp"). See DESIGN.md §7 for the mapping
// from each rule to the paper's security requirements.

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace provdb::lint {

/// One rule violation.
struct Finding {
  std::string rule_id;    // "R01"
  std::string rule_name;  // "nondet-iteration"
  std::string path;       // repo-relative, '/'-separated
  size_t line = 0;        // 1-based
  std::string message;
  std::string suggestion;  // printed under --fix-suggestions

  /// "path:line: [R01/nondet-iteration] message".
  std::string ToString(bool with_suggestion = false) const;
};

/// Static description of one rule, for --list-rules and docs.
struct RuleInfo {
  const char* id;
  const char* name;
  const char* summary;
};

/// All rules, in id order.
const std::vector<RuleInfo>& Rules();

/// A file from the test corpus (everything under tests/), used by R05 to
/// decide whether a source file is test-referenced.
struct TestFile {
  std::string path;     // repo-relative
  std::string content;  // raw bytes
};

/// The rule engine. Paths are matched textually, so callers (including
/// unit tests) may lint in-memory content under any claimed path.
class Linter {
 public:
  Linter() = default;

  /// Corpus for R05. Without a corpus R05 is skipped entirely, so
  /// single-file invocations don't drown in false positives.
  void SetTestCorpus(std::vector<TestFile> corpus);

  /// Records the functions `content` declares with PROVDB_REQUIRES(...).
  /// R09 treats the body of any function so declared as a live lock
  /// scope, wherever the body is defined — the caller holds the lock for
  /// all of it. Functions are told apart by class and name, so a
  /// same-named function of another class is not one. LintContent also collects the declarations of the file it
  /// lints, so this is only needed for declarations in other files (a
  /// header's, for its .cc).
  void AddLockRequiringDeclarations(const std::string& content);

  /// Runs every applicable rule over `content` as if it lived at `path`
  /// (repo-relative). Findings are ordered by line, then rule id.
  std::vector<Finding> LintContent(const std::string& path,
                                   const std::string& content) const;

 private:
  std::vector<TestFile> corpus_;
  bool has_corpus_ = false;
  /// "Class::Name" of each PROVDB_REQUIRES function ("::Name" when
  /// free); see AddLockRequiringDeclarations.
  std::set<std::string> lock_requiring_;
};

}  // namespace provdb::lint

#endif  // PROVDB_TOOLS_LINT_LINT_H_
