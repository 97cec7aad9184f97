#ifndef PROVDB_TESTS_TESTING_GATED_ENV_H_
#define PROVDB_TESTS_TESTING_GATED_ENV_H_

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/env.h"

namespace provdb::testing {

/// Env decorator that forwards every call to `base`. Tests derive from it
/// and override only the calls they instrument.
class ForwardingEnv : public storage::Env {
 public:
  explicit ForwardingEnv(storage::Env* base) : base_(base) {}

  Result<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return base_->NewWritableFile(path);
  }
  Result<Bytes> ReadFileToBytes(const std::string& path) override {
    return base_->ReadFileToBytes(path);
  }
  Status ReadFileRange(const std::string& path, uint64_t offset,
                       size_t length, Bytes* out) override {
    return base_->ReadFileRange(path, offset, length, out);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }

 protected:
  storage::Env* base() const { return base_; }

 private:
  storage::Env* base_;
};

/// Holds the Sync of every file whose path contains `needle` (one shard's
/// directory, or ".pvck.tmp" for a checkpoint seal) while the gate is
/// closed, so a test can freeze one thread mid-fsync, watch what the
/// others do meanwhile, then let it finish. The gate starts open.
class GatedEnv final : public ForwardingEnv {
 public:
  GatedEnv(storage::Env* base, std::string needle)
      : ForwardingEnv(base), needle_(std::move(needle)) {}

  /// Closes the gate: matching Syncs from now on wait for Release().
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }

  /// Opens the gate and lets every held Sync proceed.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    changed_.notify_all();
  }

  /// Blocks until at least `n` Syncs have been held at the gate.
  void AwaitHeld(size_t n = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return held_ >= n; });
  }

  /// Syncs held at the gate so far (including released ones).
  size_t held() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_;
  }

  Result<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto file = base()->NewWritableFile(path);
    if (!file.ok() || path.find(needle_) == std::string::npos) {
      return file;
    }
    return std::unique_ptr<storage::WritableFile>(
        new GatedFile(this, std::move(*file)));
  }

 private:
  class GatedFile final : public storage::WritableFile {
   public:
    GatedFile(GatedEnv* env, std::unique_ptr<storage::WritableFile> inner)
        : env_(env), inner_(std::move(inner)) {}
    Status Append(ByteView data) override { return inner_->Append(data); }
    Status Flush() override { return inner_->Flush(); }
    Status Sync() override {
      env_->Pass();
      return inner_->Sync();
    }
    Status Close() override { return inner_->Close(); }

   private:
    GatedEnv* env_;
    std::unique_ptr<storage::WritableFile> inner_;
  };

  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (open_) return;
    ++held_;
    changed_.notify_all();
    changed_.wait(lock, [&] { return open_; });
  }

  const std::string needle_;
  std::mutex mu_;
  std::condition_variable changed_;
  bool open_ = true;
  size_t held_ = 0;
};

}  // namespace provdb::testing

#endif  // PROVDB_TESTS_TESTING_GATED_ENV_H_
