#!/bin/sh
# CI driver, organised as named stages:
#
#   release-tests  regular Release build + full ctest suite
#   lint           provdb_lint over src/ (determinism / checked-verify rules)
#   werror         src/ under the hardened tier: -Wconversion -Wshadow
#                  -Wextra-semi -Werror (PROVDB_WERROR=ON)
#   thread-safety  clang -Wthread-safety[-beta] as errors over src/
#                  (PROVDB_THREAD_SAFETY=ON): every PROVDB_GUARDED_BY /
#                  PROVDB_REQUIRES contract machine-checked, plus a
#                  negative control — the deliberately-racy fixture in
#                  tests/thread_safety/ must FAIL to compile. Skipped
#                  when clang is absent (analysis-only stage)
#   format         clang-format --dry-run over first-party sources
#                  (check-only; skipped when clang-format is absent)
#   crash-recovery the durability suite (ctest -L crash-recovery): WAL
#                  recovery matrix + fault-injection crash sweep, run
#                  under ASan+UBSan so torn-write salvage is also
#                  memory-clean
#   checkpoint     signed checkpoints (DESIGN.md §13) under ASan+UBSan:
#                  seal/load round trip, the every-byte-flip tamper
#                  matrix, checkpoint-bounded recovery, and the crash
#                  sweep over every mutating op of seal + segment GC
#   server         the network provenance service under ASan+UBSan: the
#                  wire-codec bijection suites, the loopback integration
#                  suites (live server, pipelined clients, admission
#                  overload), the load-generator suites, and the
#                  every-byte-flip / every-truncation wire tamper matrix
#   tsan           ThreadSanitizer over the parallel verify/audit paths,
#                  the sharded ingest pipeline (parallel signing, per-shard
#                  flush ownership, overlapped shard fsyncs), the
#                  checkpoint suites (background seals racing ingest), the
#                  concurrent metrics-recording tests, the epoch/snapshot
#                  suites, and the network server's poll/executor/
#                  multi-client thread soup (the Server* suites)
#   snapshot       the epoch-based snapshot read path (DESIGN.md §16)
#                  under TSan: the epoch-domain reader/writer/reclaimer
#                  stress suites, the snapshot byte-equality suites, and
#                  the concurrent-auditor differential (an auditor racing
#                  the live pipeline at 1/2/8 shards) — exactly where a
#                  missed fence or a premature reclaim would hide
#   soak           NOT in the default list (long-running): 30 seconds of
#                  ingest + continuous snapshot audit + periodic
#                  checkpoints (ctest -L soak, PROVDB_SOAK_SECONDS=30),
#                  asserting the epoch retired backlog drains to zero at
#                  quiescence and RSS stays flat
#   crypto         the bignum kernel sweep under strict UBSan: for every
#                  PROVDB_BIGNUM_KERNEL= spec (each multiply x ladder
#                  combination plus the default), run the full crypto
#                  suite, the randomized kernel cross-checks, and the
#                  golden-digest corpus — byte-identical signatures under
#                  every kernel, with no UB executed (docs/CRYPTO.md);
#                  also the hash and CRC-32 kernel tests (each SHA-1
#                  kernel on the FIPS vectors and cross-checked against
#                  the portable one; slice-by-8 against a bytewise CRC)
#   asan           ASan+UBSan over the wire-format decoder fuzz tests
#   ubsan          strict UBSan (PROVDB_SANITIZE=undefined,
#                  -fno-sanitize-recover) over the full release-test
#                  suite: any diagnosed undefined behavior aborts the
#                  test instead of printing and passing
#   differential   the randomized differential + tamper-matrix harness
#                  (ctest -L differential) under ASan+UBSan: sequential
#                  store vs sharded pipeline byte-equality, single-field
#                  tamper detection, WAL byte-flip refusal
#   docs           markdown link check plus the src/ <-> OBSERVABILITY.md
#                  metric-name cross-check (both directions)
#   tidy           clang-tidy (.clang-tidy profile) over src/
#                  (skipped when clang-tidy is absent)
#
# Usage: tools/ci.sh [stage...]
#   No arguments runs the default order:
#     release-tests lint werror thread-safety format crash-recovery
#     checkpoint server tsan snapshot crypto asan ubsan differential docs
#   plus tidy when PROVDB_TIDY=1 (clang-tidy may be absent, so it is
#   opt-in). Build trees go under $PROVDB_CI_OUT (default: ./ci-out).
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${PROVDB_CI_OUT:-$ROOT/ci-out}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run() {
  echo "==> $*"
  "$@"
}

stage_release_tests() {
  run cmake -S "$ROOT" -B "$OUT/release" -DCMAKE_BUILD_TYPE=Release
  run cmake --build "$OUT/release" -j "$JOBS"
  run ctest --test-dir "$OUT/release" --output-on-failure -j "$JOBS"
}

stage_lint() {
  run cmake -S "$ROOT" -B "$OUT/release" -DCMAKE_BUILD_TYPE=Release
  run cmake --build "$OUT/release" -j "$JOBS" --target provdb_lint
  run "$OUT/release/tools/lint/provdb_lint" --root "$ROOT" src
}

stage_werror() {
  run cmake -S "$ROOT" -B "$OUT/werror" -DCMAKE_BUILD_TYPE=Release \
    -DPROVDB_WERROR=ON -DPROVDB_BUILD_TESTS=OFF \
    -DPROVDB_BUILD_BENCHMARKS=OFF -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/werror" -j "$JOBS" \
    --target provdb_provenance provdb_workload
}

stage_thread_safety() {
  # Clang's thread-safety analysis is the machine check behind the
  # PROVDB_GUARDED_BY / PROVDB_REQUIRES annotations; GCC parses the
  # macros to nothing, so this stage needs a real clang.
  CLANGXX=""
  for candidate in clang++ clang++-20 clang++-19 clang++-18 clang++-17 \
      clang++-16 clang++-15 clang++-14; do
    if command -v "$candidate" >/dev/null 2>&1; then
      CLANGXX="$candidate"
      break
    fi
  done
  if [ -z "$CLANGXX" ]; then
    echo "==> thread-safety: clang++ not installed, skipping" \
      "(analysis-only stage; annotations still compile away under GCC)"
    return 0
  fi
  run cmake -S "$ROOT" -B "$OUT/thread-safety" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER="$CLANGXX" -DPROVDB_THREAD_SAFETY=ON \
    -DPROVDB_BUILD_TESTS=OFF -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/thread-safety" -j "$JOBS" \
    --target provdb_provenance provdb_workload
  # Negative control: the deliberately-racy fixture (an unlocked write to
  # a PROVDB_GUARDED_BY member) must FAIL to compile. If it passes, the
  # analysis is not armed and the green build above certified nothing.
  echo "==> thread-safety: negative control (racy fixture must fail)"
  if "$CLANGXX" -std=c++20 -fsyntax-only -I "$ROOT/src" \
      -Wthread-safety -Wthread-safety-beta \
      -Werror=thread-safety -Werror=thread-safety-beta \
      "$ROOT/tests/thread_safety/racy_guarded_write.cc" 2>/dev/null; then
    echo "==> thread-safety: racy fixture compiled CLEAN —" \
      "the analysis is not armed" >&2
    exit 1
  fi
  echo "==> thread-safety: src/ clean, racy fixture rejected"
}

stage_format() {
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "==> format: clang-format not installed, skipping (check-only stage)"
    return 0
  fi
  # Check-only: --dry-run -Werror fails on any diff but rewrites nothing,
  # so formatting is enforced without a mass-reformat commit.
  find "$ROOT/src" "$ROOT/tools" "$ROOT/tests" "$ROOT/bench" "$ROOT/examples" \
    -name '*.cc' -o -name '*.h' -o -name '*.cpp' -o -name '*.hpp' \
    | sort | xargs clang-format --dry-run -Werror
  echo "==> format: clean"
}

stage_crash_recovery() {
  # The durability suite under ASan+UBSan: the recovery matrix parses
  # deliberately torn and corrupted segment files, exactly where an
  # out-of-bounds read would hide.
  run cmake -S "$ROOT" -B "$OUT/asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=address -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/asan" -j "$JOBS" \
    --target storage_durability_test integration_crash_recovery_test \
    provenance_checkpoint_test integration_checkpoint_recovery_test
  run ctest --test-dir "$OUT/asan" --output-on-failure -j "$JOBS" \
    -L crash-recovery
}

stage_checkpoint() {
  # The checkpoint subsystem in isolation (its suites also run inside
  # crash-recovery via the shared label): tamper refusal parses
  # deliberately corrupted seals, exactly where an out-of-bounds read
  # would hide, so it runs under ASan+UBSan.
  run cmake -S "$ROOT" -B "$OUT/asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=address -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/asan" -j "$JOBS" \
    --target provenance_checkpoint_test integration_checkpoint_recovery_test
  run ctest --test-dir "$OUT/asan" --output-on-failure -j "$JOBS" \
    -R 'Checkpoint'
}

stage_server() {
  # The network boundary under ASan+UBSan: the tamper matrix feeds the
  # server every single-byte flip and every truncation of real frames,
  # exactly where an out-of-bounds read in the wire decoder would hide,
  # and the overload suites stress the admission/charge accounting.
  run cmake -S "$ROOT" -B "$OUT/asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=address -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/asan" -j "$JOBS" \
    --target net_wire_test net_server_test net_server_corruption_test \
    workload_load_generator_test
  run ctest --test-dir "$OUT/asan" --output-on-failure -j "$JOBS" \
    -R 'Wire|Admission|Server'
}

stage_tsan() {
  # Benchmarks/examples are skipped: TSan only needs the thread pool, the
  # parallel verifier/auditor, the parallel subtree hasher, parallel
  # shard recovery (ParallelRecoveryTest, in provenance_ingest_test), and
  # the lock-cheap metrics registry, which the unit tests below exercise.
  run cmake -S "$ROOT" -B "$OUT/tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=thread -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/tsan" -j "$JOBS" \
    --target common_test provenance_core_test provenance_security_test \
    provenance_ext_test provenance_ingest_test provenance_snapshot_test \
    provenance_checkpoint_test integration_checkpoint_recovery_test \
    observability_test net_server_test workload_load_generator_test
  run ctest --test-dir "$OUT/tsan" --output-on-failure -j "$JOBS" \
    -R 'ThreadPool|Parallel|Audit|Concurrent|Ingest|Server|Epoch|Snapshot|Checkpoint'
}

stage_snapshot() {
  # The snapshot read path's threading story end to end under TSan: the
  # seeded epoch-domain stress (readers racing a publishing writer and a
  # reclaimer), the snapshot suites, and the concurrent-auditor
  # differential where an auditor validates batch-prefix cuts against a
  # moving pipeline. Shares the tsan build tree.
  run cmake -S "$ROOT" -B "$OUT/tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=thread -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/tsan" -j "$JOBS" \
    --target common_test provenance_snapshot_test \
    integration_differential_test
  run ctest --test-dir "$OUT/tsan" --output-on-failure -j "$JOBS" \
    -R 'Epoch|Snapshot|ConcurrentAudit'
}

stage_soak() {
  # Long-running; not in the default stage list. The seeded soak at its
  # CI duration: 30s of ingest + continuous snapshot audits + periodic
  # checkpoint/GC, then the quiesce + RSS assertions.
  run cmake -S "$ROOT" -B "$OUT/release" -DCMAKE_BUILD_TYPE=Release
  run cmake --build "$OUT/release" -j "$JOBS" \
    --target integration_epoch_soak_test
  run env PROVDB_SOAK_SECONDS=30 ctest --test-dir "$OUT/release" \
    --output-on-failure -L soak
}

stage_crypto() {
  # The kernel-dispatch contract (docs/CRYPTO.md): selection trades speed,
  # never results. Each spec pins a multiply+ladder combination through
  # the same env override production honors, then runs the crypto suites
  # and the golden-digest corpus, so a wrong carry in any kernel shows up
  # as a digest mismatch, not just a unit-test delta. Strict UBSan
  # (-fno-sanitize-recover) because the ladders lean on wide arithmetic
  # where overflowed intermediates would otherwise pass silently.
  run cmake -S "$ROOT" -B "$OUT/ubsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=undefined -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/ubsan" -j "$JOBS" \
    --target crypto_test crypto_kernel_differential_test \
    provenance_core_test common_test
  for SPEC in schoolbook+binary schoolbook+window5 karatsuba+binary \
      karatsuba+window4 karatsuba+window5 default; do
    echo "==> crypto: PROVDB_BIGNUM_KERNEL=$SPEC"
    run env PROVDB_BIGNUM_KERNEL="$SPEC" "$OUT/ubsan/tests/crypto_test"
    run env PROVDB_BIGNUM_KERNEL="$SPEC" \
      "$OUT/ubsan/tests/crypto_kernel_differential_test"
    run env PROVDB_BIGNUM_KERNEL="$SPEC" \
      "$OUT/ubsan/tests/provenance_core_test" \
      --gtest_filter='GoldenDigestTest.*'
  done
  # crypto_test above carries the SHA-1 kernel tests (each kernel this CPU
  # can run on the FIPS vectors; SHA-NI against portable under every
  # split); common_test carries slice-by-8 CRC-32 against a bytewise
  # reference.
  echo "==> crypto: CRC-32"
  run "$OUT/ubsan/tests/common_test" --gtest_filter='Crc32Test.*'
}

stage_asan() {
  run cmake -S "$ROOT" -B "$OUT/asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=address -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/asan" -j "$JOBS" --target provenance_property_test
  run ctest --test-dir "$OUT/asan" --output-on-failure -j "$JOBS" \
    -R 'Decoder|Fuzz|Property'
}

stage_ubsan() {
  # Strict UBSan over the full suite: -fno-sanitize-recover makes any
  # diagnosed undefined behavior abort the test, so a green run means no
  # UB was *executed* anywhere the tests reach. (The asan tier's UBSan
  # half runs in the default recoverable mode; this one cannot be talked
  # past.)
  run cmake -S "$ROOT" -B "$OUT/ubsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=undefined -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/ubsan" -j "$JOBS"
  run ctest --test-dir "$OUT/ubsan" --output-on-failure -j "$JOBS"
}

stage_differential() {
  # The randomized differential + tamper-matrix harness under ASan+UBSan:
  # it deliberately mutates serialized records and raw WAL bytes, exactly
  # where an out-of-bounds read in the decoder or verifier would hide.
  run cmake -S "$ROOT" -B "$OUT/asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPROVDB_SANITIZE=address -DPROVDB_BUILD_BENCHMARKS=OFF \
    -DPROVDB_BUILD_EXAMPLES=OFF
  run cmake --build "$OUT/asan" -j "$JOBS" \
    --target integration_differential_test
  run ctest --test-dir "$OUT/asan" --output-on-failure -j "$JOBS" \
    -L differential
}

stage_docs() {
  run sh "$ROOT/tools/check_doc_links.sh"
  run sh "$ROOT/tools/check_metrics_docs.sh"
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> tidy: clang-tidy not installed, skipping"
    return 0
  fi
  run cmake -S "$ROOT" -B "$OUT/release" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  find "$ROOT/src" -name '*.cc' | sort \
    | xargs clang-tidy -p "$OUT/release" --quiet
  echo "==> tidy: clean"
}

run_stage() {
  echo ""
  echo "=== stage: $1 ==="
  case "$1" in
    release-tests) stage_release_tests ;;
    lint)          stage_lint ;;
    werror)        stage_werror ;;
    thread-safety) stage_thread_safety ;;
    format)        stage_format ;;
    crash-recovery) stage_crash_recovery ;;
    checkpoint)    stage_checkpoint ;;
    server)        stage_server ;;
    tsan)          stage_tsan ;;
    snapshot)      stage_snapshot ;;
    soak)          stage_soak ;;
    crypto)        stage_crypto ;;
    asan)          stage_asan ;;
    ubsan)         stage_ubsan ;;
    differential)  stage_differential ;;
    docs)          stage_docs ;;
    tidy)          stage_tidy ;;
    *)
      echo "tools/ci.sh: unknown stage '$1'" >&2
      echo "stages: release-tests lint werror thread-safety format" \
        "crash-recovery checkpoint server tsan snapshot soak crypto asan" \
        "ubsan differential docs tidy" >&2
      exit 2
      ;;
  esac
}

if [ "$#" -gt 0 ]; then
  STAGES="$*"
else
  STAGES="release-tests lint werror thread-safety format crash-recovery checkpoint server tsan snapshot crypto asan ubsan differential docs"
  if [ "${PROVDB_TIDY:-0}" = "1" ]; then
    STAGES="$STAGES tidy"
  fi
fi

for STAGE in $STAGES; do
  run_stage "$STAGE"
done

echo ""
echo "CI: all stages green ($STAGES)."
