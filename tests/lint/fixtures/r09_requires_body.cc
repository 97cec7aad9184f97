// Fixture: violates R09 (io-under-lock) through PROVDB_REQUIRES bodies
// when linted under a src/ path. A FooLocked() helper declares no guard
// of its own, but its caller holds the lock for the whole body, so an
// fsync there stalls every thread contending for the lock exactly like
// one inside a MutexLock scope. Inline and out-of-line definitions both
// count.
#include "common/thread_annotations.h"
#include "storage/env.h"

namespace provdb::storage {

class Journal {
 public:
  Status Commit(WritableFile* file) {
    MutexLock lock(&mu_);
    return CommitLocked(file);
  }

 private:
  Status CommitLocked(WritableFile* file) PROVDB_REQUIRES(mu_);

  Status RotateLocked(WritableFile* file) const PROVDB_REQUIRES(mu_) {
    return file->Flush();  // VIOLATION (Flush in an inline REQUIRES body)
  }

  mutable Mutex mu_;
  uint64_t pending_ PROVDB_GUARDED_BY(mu_) = 0;
};

Status Journal::CommitLocked(WritableFile* file) {
  pending_ = 0;
  return file->Sync();  // VIOLATION (Sync in an out-of-line REQUIRES body)
}

}  // namespace provdb::storage
