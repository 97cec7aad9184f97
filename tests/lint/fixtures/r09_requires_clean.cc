// Fixture: R09-clean around PROVDB_REQUIRES helpers. The helper only does
// in-memory bookkeeping; the caller takes the work under the lock and
// does the I/O after release. Calls to the helper and its declaration
// are not bodies, a function without the annotation is no lock scope,
// and neither is a same-named function of another class.
#include "common/thread_annotations.h"
#include "storage/env.h"

namespace provdb::storage {

class Journal {
 public:
  Status Commit(WritableFile* file) {
    uint64_t batch = 0;
    {
      MutexLock lock(&mu_);
      batch = TakePendingLocked();
    }
    if (batch == 0) return Status::OK();
    return file->Sync();  // clean: no lock held
  }

 private:
  uint64_t TakePendingLocked() PROVDB_REQUIRES(mu_);

  mutable Mutex mu_;
  uint64_t pending_ PROVDB_GUARDED_BY(mu_) = 0;
};

uint64_t Journal::TakePendingLocked() {
  const uint64_t batch = pending_;
  pending_ = 0;
  return batch;
}

// Not annotated, and no guard in scope: nothing holds a lock here.
Status FlushUnlocked(WritableFile* file) { return file->Flush(); }

// Same name as Journal's annotated helper, but another class's (inline
// and out of line) or a free function, none annotated: only
// Journal::TakePendingLocked is a lock scope.
class Spool {
 public:
  uint64_t TakePendingLocked() {
    return file_->Sync().ok() ? 1 : 0;  // clean: Spool's, not Journal's
  }

  struct Segment {
    Status TakePendingLocked(WritableFile* file);
  };

 private:
  WritableFile* file_ = nullptr;
};

Status Spool::Segment::TakePendingLocked(WritableFile* file) {
  return file->Flush();  // clean: Segment's, not Journal's
}

Status TakePendingLocked(WritableFile* file) {
  return file->Sync();  // clean: a free function
}

}  // namespace provdb::storage
