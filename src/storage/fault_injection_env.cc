#include "storage/fault_injection_env.h"

#include <utility>

namespace provdb::storage {

/// Wrapper that forwards to the base env's file while updating the
/// owning FaultInjectionEnv's bookkeeping and applying scheduled faults.
class FaultInjectionWritableFile final : public WritableFile {
 public:
  FaultInjectionWritableFile(FaultInjectionEnv* env, std::string path,
                             std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(ByteView data) override {
    MutexLock lock(&env_->mu_);
    PROVDB_RETURN_IF_ERROR(env_->BeginMutatingOpLocked("append " + path_));
    if (!env_->active_) {
      return Status::IoError("injected fault: filesystem inactive (append " +
                             path_ + ")");
    }
    if (env_->fail_append_in_ > 0 && --env_->fail_append_in_ == 0) {
      if (env_->torn_append_ && data.size() > 1) {
        // A torn write: the front half reaches the disk image, the rest
        // never does. Recovery must treat the half-frame as garbage.
        ByteView prefix = data.subview(0, data.size() / 2);
        PROVDB_RETURN_IF_ERROR(base_->Append(prefix));
        PROVDB_RETURN_IF_ERROR(base_->Flush());
        env_->files_[path_].appended += prefix.size();
      }
      return Status::IoError("injected fault: append failure at " + path_);
    }
    PROVDB_RETURN_IF_ERROR(base_->Append(data));
    // Flush eagerly so the on-disk length is exact at write granularity;
    // "what survives a crash" is then decided solely by Sync tracking.
    PROVDB_RETURN_IF_ERROR(base_->Flush());
    env_->files_[path_].appended += data.size();
    ++env_->append_count_;
    return Status::OK();
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    MutexLock lock(&env_->mu_);
    PROVDB_RETURN_IF_ERROR(env_->BeginMutatingOpLocked("sync " + path_));
    if (!env_->active_) {
      return Status::IoError("injected fault: filesystem inactive (sync " +
                             path_ + ")");
    }
    if (env_->fail_sync_in_ > 0 && --env_->fail_sync_in_ == 0) {
      return Status::IoError("injected fault: sync failure at " + path_);
    }
    PROVDB_RETURN_IF_ERROR(base_->Sync());
    FaultInjectionEnv::FileState& state = env_->files_[path_];
    state.synced = state.appended;
    ++env_->sync_count_;
    return Status::OK();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  MutexLock lock(&mu_);
  PROVDB_RETURN_IF_ERROR(BeginMutatingOpLocked("create " + path));
  if (!active_) {
    return Status::IoError("injected fault: filesystem inactive (create " +
                           path + ")");
  }
  if (fail_new_file_in_ > 0 && --fail_new_file_in_ == 0) {
    return Status::IoError("injected fault: create failure at " + path);
  }
  PROVDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                          base_->NewWritableFile(path));
  files_[path] = FileState{};  // O_TRUNC semantics: fresh, nothing synced
  return std::unique_ptr<WritableFile>(new FaultInjectionWritableFile(
      this, path, std::move(base)));
}

Result<Bytes> FaultInjectionEnv::ReadFileToBytes(const std::string& path) {
  return base_->ReadFileToBytes(path);
}

Status FaultInjectionEnv::ReadFileRange(const std::string& path,
                                        uint64_t offset, size_t length,
                                        Bytes* out) {
  return base_->ReadFileRange(path, offset, length, out);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  MutexLock lock(&mu_);
  PROVDB_RETURN_IF_ERROR(BeginMutatingOpLocked("rename " + from));
  if (!active_) {
    return Status::IoError("injected fault: filesystem inactive (rename " +
                           from + ")");
  }
  PROVDB_RETURN_IF_ERROR(base_->RenameFile(from, to));
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  }
  ++dir_sync_count_;  // base RenameFile fsyncs the target directory
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  MutexLock lock(&mu_);
  PROVDB_RETURN_IF_ERROR(BeginMutatingOpLocked("remove " + path));
  if (!active_) {
    return Status::IoError("injected fault: filesystem inactive (remove " +
                           path + ")");
  }
  files_.erase(path);
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::CreateDir(const std::string& path) {
  MutexLock lock(&mu_);
  PROVDB_RETURN_IF_ERROR(BeginMutatingOpLocked("mkdir " + path));
  if (!active_) {
    return Status::IoError("injected fault: filesystem inactive (mkdir " +
                           path + ")");
  }
  return base_->CreateDir(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& dir) {
  return base_->ListDir(dir);
}

Result<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  MutexLock lock(&mu_);
  PROVDB_RETURN_IF_ERROR(BeginMutatingOpLocked("truncate " + path));
  if (!active_) {
    return Status::IoError("injected fault: filesystem inactive (truncate " +
                           path + ")");
  }
  return base_->TruncateFile(path, size);
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  MutexLock lock(&mu_);
  PROVDB_RETURN_IF_ERROR(BeginMutatingOpLocked("syncdir " + dir));
  if (!active_) {
    return Status::IoError("injected fault: filesystem inactive (syncdir " +
                           dir + ")");
  }
  PROVDB_RETURN_IF_ERROR(base_->SyncDir(dir));
  ++dir_sync_count_;
  return Status::OK();
}

void FaultInjectionEnv::ScheduleAppendFailure(uint64_t nth, bool torn) {
  MutexLock lock(&mu_);
  fail_append_in_ = nth;
  torn_append_ = torn;
}

void FaultInjectionEnv::ScheduleSyncFailure(uint64_t nth) {
  MutexLock lock(&mu_);
  fail_sync_in_ = nth;
}

void FaultInjectionEnv::ScheduleNewFileFailure(uint64_t nth) {
  MutexLock lock(&mu_);
  fail_new_file_in_ = nth;
}

void FaultInjectionEnv::ScheduleCrashAtOp(uint64_t nth) {
  MutexLock lock(&mu_);
  crash_at_op_ = nth == 0 ? 0 : mutating_op_count_ + nth;
}

Status FaultInjectionEnv::BeginMutatingOpLocked(const std::string& what) {
  ++mutating_op_count_;
  if (crash_at_op_ > 0 && mutating_op_count_ >= crash_at_op_) {
    // The crash point: this operation fails and the disk image freezes,
    // exactly as if the process died here.
    active_ = false;
    return Status::IoError("injected fault: crash at op #" +
                           std::to_string(mutating_op_count_) + " (" + what +
                           ")");
  }
  return Status::OK();
}

void FaultInjectionEnv::ClearFaults() {
  MutexLock lock(&mu_);
  active_ = true;
  fail_append_in_ = 0;
  torn_append_ = false;
  fail_sync_in_ = 0;
  fail_new_file_in_ = 0;
  crash_at_op_ = 0;
}

Status FaultInjectionEnv::DropUnsyncedFileData() {
  MutexLock lock(&mu_);
  for (const auto& [path, state] : files_) {
    if (!base_->FileExists(path)) {
      continue;
    }
    if (state.synced < state.appended) {
      PROVDB_RETURN_IF_ERROR(base_->TruncateFile(path, state.synced));
    }
  }
  return Status::OK();
}

uint64_t FaultInjectionEnv::synced_bytes(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.synced;
}

uint64_t FaultInjectionEnv::appended_bytes(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.appended;
}

}  // namespace provdb::storage
