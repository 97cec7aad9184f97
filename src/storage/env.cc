#include "storage/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace provdb::storage {
namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

/// Buffered append-only file over a POSIX descriptor.
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {
    buffer_.reserve(kBufferSize);
  }

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      // Best-effort: abandoning a writer without Close loses buffered
      // data, exactly like a process crash would.
      ::close(fd_);
    }
  }

  Status Append(ByteView data) override {
    if (fd_ < 0) {
      return Status::FailedPrecondition("append to closed file " + path_);
    }
    if (buffer_.size() + data.size() <= kBufferSize) {
      AppendBytes(&buffer_, data);
      return Status::OK();
    }
    PROVDB_RETURN_IF_ERROR(Flush());
    if (data.size() <= kBufferSize) {
      AppendBytes(&buffer_, data);
      return Status::OK();
    }
    return WriteRaw(data);
  }

  Status Flush() override {
    if (fd_ < 0) {
      return Status::FailedPrecondition("flush of closed file " + path_);
    }
    if (buffer_.empty()) {
      return Status::OK();
    }
    Status s = WriteRaw(buffer_);
    buffer_.clear();
    return s;
  }

  Status Sync() override {
    PROVDB_RETURN_IF_ERROR(Flush());
    if (::fsync(fd_) != 0) {
      return Status::IoError(ErrnoMessage("fsync " + path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) {
      return Status::OK();
    }
    Status s = Flush();
    if (::close(fd_) != 0 && s.ok()) {
      s = Status::IoError(ErrnoMessage("close " + path_));
    }
    fd_ = -1;
    return s;
  }

 private:
  static constexpr size_t kBufferSize = 1 << 16;

  Status WriteRaw(ByteView data) {
    const uint8_t* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::IoError(ErrnoMessage("write " + path_));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  std::string path_;
  int fd_;
  Bytes buffer_;
};

class PosixEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      return Status::IoError(ErrnoMessage("open " + path + " for writing"));
    }
    return std::unique_ptr<WritableFile>(
        new PosixWritableFile(path, fd));
  }

  Result<Bytes> ReadFileToBytes(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError(ErrnoMessage("open " + path + " for reading"));
    }
    Bytes content;
    uint8_t buf[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        // The satellite bug this interface exists to kill: a mid-read
        // failure must never masquerade as a short-but-valid file.
        Status s = Status::IoError(ErrnoMessage("read " + path));
        ::close(fd);
        return s;
      }
      if (n == 0) {
        break;
      }
      content.insert(content.end(), buf, buf + n);
    }
    ::close(fd);
    return content;
  }

  Status ReadFileRange(const std::string& path, uint64_t offset,
                       size_t length, Bytes* out) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError(ErrnoMessage("open " + path + " for reading"));
    }
    const size_t start = out->size();
    out->resize(start + length);
    size_t got = 0;
    Status s;
    while (got < length) {
      ssize_t n = ::pread(fd, out->data() + start + got, length - got,
                          static_cast<off_t>(offset + got));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        s = Status::IoError(ErrnoMessage("read " + path));
        break;
      }
      if (n == 0) {
        break;
      }
      got += static_cast<size_t>(n);
    }
    ::close(fd);
    out->resize(start + got);
    return s;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IoError(ErrnoMessage("rename " + from + " -> " + to));
    }
    // The rename is only durable once the directory entry is on disk.
    return SyncDir(ParentDir(to));
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::IoError(ErrnoMessage("unlink " + path));
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError(ErrnoMessage("mkdir " + path));
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return Status::IoError(ErrnoMessage("opendir " + dir));
    }
    std::vector<std::string> names;
    struct dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") {
        names.push_back(std::move(name));
      }
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IoError(ErrnoMessage("stat " + path));
    }
    return static_cast<uint64_t>(st.st_size);
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    // Open + ftruncate + fsync (not ::truncate): WAL tail repair relies
    // on the shortened length being durable before recovery reports
    // success.
    int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError(ErrnoMessage("open " + path + " for truncate"));
    }
    Status s;
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      s = Status::IoError(ErrnoMessage("ftruncate " + path));
    } else if (::fsync(fd) != 0) {
      s = Status::IoError(ErrnoMessage("fsync " + path));
    }
    ::close(fd);
    return s;
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError(ErrnoMessage("open dir " + dir));
    }
    Status s;
    if (::fsync(fd) != 0) {
      s = Status::IoError(ErrnoMessage("fsync dir " + dir));
    }
    ::close(fd);
    return s;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

}  // namespace provdb::storage
