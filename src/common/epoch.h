#ifndef PROVDB_COMMON_EPOCH_H_
#define PROVDB_COMMON_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "observability/metrics.h"

namespace provdb {

/// Base class for anything reclaimed through an EpochDomain. Retirement
/// is intrusive (the two fields below), so retiring never allocates —
/// a hard requirement for the ingest write path, which retires replaced
/// store versions at every group-commit publish.
class EpochRetired {
 public:
  EpochRetired() = default;
  virtual ~EpochRetired() = default;

  EpochRetired(const EpochRetired&) = delete;
  EpochRetired& operator=(const EpochRetired&) = delete;

 private:
  friend class EpochDomain;
  EpochRetired* epoch_next_ = nullptr;
  uint64_t epoch_stamp_ = 0;
};

/// Classic epoch-based reclamation (EBR) for this codebase's copy-on-write
/// stores, with any number of concurrent writers (one per shard) and
/// readers:
///
///   * Readers Pin() the domain (claiming one of a fixed set of
///     cache-line-aligned epoch slots), traverse immutable copy-on-write
///     structures, and unpin. Pin/unpin are lock-free, allocation-free,
///     and safe from any thread — including ThreadPool workers; a Guard
///     may be held by one thread while others (e.g. a verify fan-out on
///     the shared pool) traverse under its protection, because protection
///     attaches to the pinned slot, not to the pinning thread.
///
///   * Each writer owns the structures it publishes. It buffers the nodes
///     it unlinks in its own RetireBuffer, publishes its new version, and
///     then hands the buffer over with AdvanceAndRetire, which stamps
///     every node with the epoch the advance leaves. Collect() frees
///     whatever no pinned reader can still reach. The shared retired
///     list is lock-free, so writers of different shards never wait on
///     each other.
///
/// Reclamation rule: a node stamped S was unlinked before its writer's
/// publish, and that publish precedes the writer's advance from S to
/// S+1. Every change to the global epoch is a read-modify-write, so a
/// reader that pins at any e > S synchronizes with that advance and
/// observes the publish — it cannot reach the node. Collect() therefore
/// frees exactly the nodes with stamp < min(every pinned epoch, the
/// global epoch). Stamping at the advance rather than at the unlink is
/// what makes the rule hold with several writers: another shard's
/// advance may land between this writer's unlink and its publish. All
/// slot and global-epoch accesses are seq_cst, which is what makes the
/// "scan saw the slot empty" / "reader re-checks the global after
/// claiming" race resolve safely (see epoch.cc).
class EpochDomain {
 public:
  /// Upper bound on simultaneously pinned readers. Pin() spins (yielding)
  /// when all slots are busy; with snapshots held briefly per audit pass
  /// this bound is never approached in practice.
  static constexpr size_t kMaxSlots = 64;

  /// RAII pin. Default-constructed guards are unpinned no-ops, so they
  /// can be members of movable snapshot objects.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept { *this = std::move(other); }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        domain_ = other.domain_;
        slot_ = other.slot_;
        epoch_ = other.epoch_;
        other.domain_ = nullptr;
      }
      return *this;
    }
    ~Guard() { Release(); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    bool pinned() const { return domain_ != nullptr; }
    /// The epoch this guard is pinned at (0 when unpinned).
    uint64_t epoch() const { return domain_ != nullptr ? epoch_ : 0; }

   private:
    friend class EpochDomain;
    Guard(EpochDomain* domain, size_t slot, uint64_t epoch)
        : domain_(domain), slot_(slot), epoch_(epoch) {}
    void Release();

    EpochDomain* domain_ = nullptr;
    size_t slot_ = 0;
    uint64_t epoch_ = 0;
  };

  EpochDomain();
  /// Frees every still-retired node. No reader may be pinned and no
  /// retired node may still be reachable when the domain dies.
  ~EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Pins the calling context at the current epoch. Lock-free and
  /// allocation-free; spins only if all kMaxSlots slots are occupied.
  Guard Pin();

  /// Nodes one writer has unlinked since its last publish, not yet
  /// stamped. Writer-local: only its owner touches it, so adding is a
  /// plain intrusive push. Destroying a non-empty buffer frees its nodes
  /// — only legal at quiescence (store destruction), when no reader can
  /// reach them.
  class RetireBuffer {
   public:
    RetireBuffer() = default;
    ~RetireBuffer() { DeleteAll(); }
    RetireBuffer(RetireBuffer&& other) noexcept { *this = std::move(other); }
    RetireBuffer& operator=(RetireBuffer&& other) noexcept;

    RetireBuffer(const RetireBuffer&) = delete;
    RetireBuffer& operator=(const RetireBuffer&) = delete;

    /// Takes ownership of `node`, which must already be unlinked from the
    /// writer's working structure. Never allocates.
    void Add(EpochRetired* node);

   private:
    friend class EpochDomain;
    void DeleteAll();

    EpochRetired* head_ = nullptr;
    EpochRetired* tail_ = nullptr;
    uint64_t count_ = 0;
  };

  // --- Writer side. Safe from several writers at once and never blocks
  // --- readers.

  /// A writer's publish point: advances the epoch (after the writer's new
  /// version is visible) and hands over every node in `buffer`, stamped
  /// with the epoch this advance leaves. Empties `buffer`; returns the
  /// new epoch. Never allocates.
  uint64_t AdvanceAndRetire(RetireBuffer* buffer);

  /// Frees every retired node no pinned reader can still reach (stamp <
  /// min(pinned epochs, global epoch)). Returns how many were freed. Safe
  /// to call from several writers at once: each call takes the whole
  /// shared list, frees what it may, and pushes the rest back.
  size_t Collect();

  uint64_t current_epoch() const {
    return global_.load(std::memory_order_seq_cst);
  }

  /// Retired-but-not-yet-freed nodes handed to the domain. The soak test
  /// asserts this drains to zero at quiescence.
  uint64_t retired_pending() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

  /// Smallest epoch any reader is pinned at, or 0 when none are pinned.
  uint64_t min_pinned_epoch() const;

 private:
  struct alignas(64) Slot {
    /// 0 = free; otherwise the epoch the occupying reader is pinned at.
    std::atomic<uint64_t> epoch{0};
  };

  /// Pushes the pre-linked chain first..last onto the shared retired
  /// list (lock-free; the list is only ever pushed to or taken whole, so
  /// the CAS cannot suffer ABA).
  void PushRetired(EpochRetired* first, EpochRetired* last);

  std::atomic<uint64_t> global_{1};
  Slot slots_[kMaxSlots];

  // Shared retired list — intrusive, never allocates.
  std::atomic<EpochRetired*> retired_head_{nullptr};
  std::atomic<uint64_t> retired_count_{0};

  // Observability (docs/OBSERVABILITY.md): shared, registry-owned
  // instruments, so every domain in the process feeds the same series.
  observability::Gauge* active_readers_;
  observability::Counter* retired_metric_;
  observability::Counter* reclaimed_metric_;
  observability::Gauge* oldest_pinned_age_;
};

}  // namespace provdb

#endif  // PROVDB_COMMON_EPOCH_H_
