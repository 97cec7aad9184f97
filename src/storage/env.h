#ifndef PROVDB_STORAGE_ENV_H_
#define PROVDB_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace provdb::storage {

/// A file opened for appending. Durability is a two-step contract:
/// `Flush` pushes user-space buffers to the OS (survives a process
/// crash), `Sync` pushes OS buffers to stable storage (survives a power
/// cut). Nothing appended is durable until a `Sync` returns OK.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  WritableFile() = default;
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  /// Appends `data` at the end of the file (buffered).
  virtual Status Append(ByteView data) = 0;

  /// Flushes user-space buffers into the OS page cache.
  virtual Status Flush() = 0;

  /// Flush, then fsync: everything appended so far is on stable storage
  /// when this returns OK.
  virtual Status Sync() = 0;

  /// Flushes and closes the descriptor. Does NOT imply Sync.
  virtual Status Close() = 0;
};

/// Narrow filesystem abstraction — the only sanctioned route to the disk
/// for persistence code (enforced by lint rule R06 `raw-file-io`). The
/// indirection exists so tests can substitute a FaultInjectionEnv and
/// prove crash-recovery invariants that the real filesystem only
/// exercises during actual power cuts.
class Env {
 public:
  virtual ~Env() = default;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// The process-wide POSIX environment (never null, never deleted).
  static Env* Default();

  /// Creates (or truncates) `path` for writing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Reads the whole file. A mid-read I/O failure is an error, never a
  /// silently short buffer.
  virtual Result<Bytes> ReadFileToBytes(const std::string& path) = 0;

  /// Appends up to `length` bytes of `path`, starting at byte `offset`,
  /// to `*out`. Fewer bytes arrive only at end of file (none when
  /// `offset` is at or past it); a mid-read I/O failure is an error.
  /// Streaming readers (CheckpointReader::Load) call this chunk by chunk
  /// so their memory stays bounded whatever the file's size.
  virtual Status ReadFileRange(const std::string& path, uint64_t offset,
                               size_t length, Bytes* out) = 0;

  /// Atomically renames `from` to `to` and fsyncs the target's parent
  /// directory, so the new name itself survives a power cut. The *file
  /// contents* must already have been Sync'd by the caller.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  virtual Status RemoveFile(const std::string& path) = 0;

  /// Creates a directory; succeeds if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;

  /// Names (not paths) of the entries in `dir`, sorted, '.'/'..' excluded.
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& dir) = 0;

  virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  /// Truncates `path` to `size` bytes.
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;

  /// fsyncs a directory so previously created/renamed entries are durable.
  virtual Status SyncDir(const std::string& dir) = 0;
};

/// Directory part of `path` ("." when there is no separator).
std::string ParentDir(const std::string& path);

}  // namespace provdb::storage

#endif  // PROVDB_STORAGE_ENV_H_
