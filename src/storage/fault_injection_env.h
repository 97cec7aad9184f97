#ifndef PROVDB_STORAGE_FAULT_INJECTION_ENV_H_
#define PROVDB_STORAGE_FAULT_INJECTION_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/env.h"

namespace provdb::storage {

/// Test double that wraps a real Env and simulates crashes and disk
/// faults deterministically (modelled on LevelDB's FaultInjectionTestEnv):
///
///  * every Append through this env is flushed to the OS immediately, so
///    the on-disk state is exact at each write boundary;
///  * `DropUnsyncedFileData` truncates every file back to its last
///    synced size — the worst legal outcome of a power cut;
///  * `ScheduleAppendFailure(n)` makes the n-th subsequent Append fail,
///    optionally after writing only a prefix (a torn write);
///  * `SetFilesystemActive(false)` fails all writes and syncs, freezing
///    the disk image at the crash point.
///
/// Counters expose how many appends / syncs / dir-syncs reached the
/// underlying Env, so tests can assert sync contracts ("a checkpoint is
/// synced before it is renamed into place") rather than trust comments.
///
/// Thread-safe: one coarse mutex serializes every operation and all
/// bookkeeping (it is a test double — fidelity beats parallelism), so it
/// can sit under components exercised from several threads, e.g. the
/// serialized IngestPipeline driven by concurrent producers. Fault
/// scheduling ("the nth append fails") stays deterministic only when the
/// *workload* is deterministic; concurrent tests should assert on the
/// counters and the sync contract, not on which thread hits the fault.
class FaultInjectionEnv final : public Env {
 public:
  /// `base` must outlive this env. Typically Env::Default().
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  // --- Env interface ----------------------------------------------------

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<Bytes> ReadFileToBytes(const std::string& path) override;
  Status ReadFileRange(const std::string& path, uint64_t offset,
                       size_t length, Bytes* out) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& dir) override;

  // --- Fault controls ---------------------------------------------------

  /// When false, every Append/Sync/rename fails with kIoError.
  void SetFilesystemActive(bool active) {
    MutexLock lock(&mu_);
    active_ = active;
  }
  bool filesystem_active() const {
    MutexLock lock(&mu_);
    return active_;
  }

  /// The `nth` Append from now (1-based) fails with kIoError. With
  /// `torn`, the failing append first writes the front half of its
  /// payload — a torn frame, as a real sector-boundary power cut leaves.
  void ScheduleAppendFailure(uint64_t nth, bool torn = false);

  /// The `nth` Sync from now (1-based) fails with kIoError.
  void ScheduleSyncFailure(uint64_t nth);

  /// The `nth` NewWritableFile from now (1-based) fails with kIoError —
  /// e.g. the segment creation inside a WAL rollover.
  void ScheduleNewFileFailure(uint64_t nth);

  /// Crash sweep control: the `nth` mutating filesystem operation from
  /// now (append, sync, dir-sync, create, rename, remove, truncate,
  /// mkdir) fails with kIoError *and* freezes the filesystem, so the
  /// process cannot touch the disk image past the crash point. Use
  /// `mutating_ops()` from a fault-free dry run to size the sweep.
  void ScheduleCrashAtOp(uint64_t nth);

  /// Mutating operations attempted through this env so far (the unit
  /// ScheduleCrashAtOp counts in).
  uint64_t mutating_ops() const {
    MutexLock lock(&mu_);
    return mutating_op_count_;
  }

  /// Clears scheduled failures and re-activates the filesystem (does not
  /// reset counters or tracked file state).
  void ClearFaults();

  /// Simulates a power cut: truncates every file written through this
  /// env back to the bytes covered by its last successful Sync. Close
  /// writers (or abandon them) before calling.
  Status DropUnsyncedFileData();

  // --- Observability ----------------------------------------------------

  uint64_t append_count() const {
    MutexLock lock(&mu_);
    return append_count_;
  }
  uint64_t sync_count() const {
    MutexLock lock(&mu_);
    return sync_count_;
  }
  uint64_t dir_sync_count() const {
    MutexLock lock(&mu_);
    return dir_sync_count_;
  }

  /// Bytes currently guaranteed durable for `path` (0 if untracked).
  uint64_t synced_bytes(const std::string& path) const;

  /// Bytes appended so far for `path` (0 if untracked).
  uint64_t appended_bytes(const std::string& path) const;

 private:
  friend class FaultInjectionWritableFile;

  struct FileState {
    uint64_t appended = 0;
    uint64_t synced = 0;
  };

  /// Bumps the mutating-op counter and applies a scheduled crash: when
  /// the counter hits the crash point the filesystem freezes and the
  /// current operation fails. Returns OK otherwise.
  Status BeginMutatingOpLocked(const std::string& what) PROVDB_REQUIRES(mu_);

  Env* base_;
  /// The coarse lock: held across each operation's bookkeeping *and* its
  /// forwarded base-env call, so the tracked state (appended/synced
  /// bytes) never disagrees with the real disk image mid-operation.
  mutable Mutex mu_;
  bool active_ PROVDB_GUARDED_BY(mu_) = true;
  std::map<std::string, FileState> files_ PROVDB_GUARDED_BY(mu_);
  uint64_t append_count_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t sync_count_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t dir_sync_count_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t mutating_op_count_ PROVDB_GUARDED_BY(mu_) = 0;
  // 0 = no failure scheduled
  uint64_t fail_append_in_ PROVDB_GUARDED_BY(mu_) = 0;
  bool torn_append_ PROVDB_GUARDED_BY(mu_) = false;
  uint64_t fail_sync_in_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t fail_new_file_in_ PROVDB_GUARDED_BY(mu_) = 0;
  uint64_t crash_at_op_ PROVDB_GUARDED_BY(mu_) = 0;  // 0 = no crash
};

}  // namespace provdb::storage

#endif  // PROVDB_STORAGE_FAULT_INJECTION_ENV_H_
