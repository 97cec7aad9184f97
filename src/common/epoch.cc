#include "common/epoch.h"

#include <thread>

namespace provdb {

EpochDomain::EpochDomain()
    : active_readers_(
          observability::GlobalMetrics().gauge("epoch.active_readers")),
      retired_metric_(observability::GlobalMetrics().counter("epoch.retired")),
      reclaimed_metric_(
          observability::GlobalMetrics().counter("epoch.reclaimed")),
      oldest_pinned_age_(
          observability::GlobalMetrics().gauge("epoch.oldest_pinned_age")) {}

EpochDomain::~EpochDomain() {
  // Destruction is a quiescent point by contract: no pinned readers, no
  // reachable retired nodes. Drain unconditionally.
  EpochRetired* node = retired_head_.exchange(nullptr);
  while (node != nullptr) {
    EpochRetired* next = node->epoch_next_;
    delete node;
    node = next;
  }
  retired_count_.store(0);
}

EpochDomain::RetireBuffer& EpochDomain::RetireBuffer::operator=(
    RetireBuffer&& other) noexcept {
  if (this != &other) {
    DeleteAll();
    head_ = std::exchange(other.head_, nullptr);
    tail_ = std::exchange(other.tail_, nullptr);
    count_ = std::exchange(other.count_, 0);
  }
  return *this;
}

void EpochDomain::RetireBuffer::Add(EpochRetired* node) {
  node->epoch_next_ = head_;
  head_ = node;
  if (tail_ == nullptr) {
    tail_ = node;
  }
  ++count_;
}

void EpochDomain::RetireBuffer::DeleteAll() {
  EpochRetired* node = head_;
  while (node != nullptr) {
    EpochRetired* next = node->epoch_next_;
    delete node;
    node = next;
  }
  head_ = nullptr;
  tail_ = nullptr;
  count_ = 0;
}

EpochDomain::Guard EpochDomain::Pin() {
  for (;;) {
    for (size_t i = 0; i < kMaxSlots; ++i) {
      if (slots_[i].epoch.load(std::memory_order_relaxed) != 0) {
        continue;  // occupied; cheap pre-check before the CAS
      }
      uint64_t e = global_.load(std::memory_order_seq_cst);
      uint64_t expected = 0;
      if (!slots_[i].epoch.compare_exchange_strong(
              expected, e, std::memory_order_seq_cst)) {
        continue;  // lost the slot race
      }
      // Store-then-recheck: the writer may have advanced between our
      // global load and the slot store. Re-publishing the newer epoch
      // and looping makes the final slot value always >= any epoch the
      // collector could have missed us at — see the reclamation-rule
      // comment in epoch.h for why this closes the race.
      for (;;) {
        uint64_t g = global_.load(std::memory_order_seq_cst);
        if (g == e) {
          active_readers_->Add(1);
          return Guard(this, i, e);
        }
        slots_[i].epoch.store(g, std::memory_order_seq_cst);
        e = g;
      }
    }
    std::this_thread::yield();  // all slots busy; readers unpin quickly
  }
}

void EpochDomain::Guard::Release() {
  if (domain_ == nullptr) {
    return;
  }
  domain_->slots_[slot_].epoch.store(0, std::memory_order_seq_cst);
  domain_->active_readers_->Sub(1);
  domain_ = nullptr;
}

void EpochDomain::PushRetired(EpochRetired* first, EpochRetired* last) {
  EpochRetired* head = retired_head_.load(std::memory_order_relaxed);
  do {
    last->epoch_next_ = head;
  } while (!retired_head_.compare_exchange_weak(head, first,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
}

uint64_t EpochDomain::AdvanceAndRetire(RetireBuffer* buffer) {
  // The caller's publish happened before this RMW; stamping with the
  // epoch it leaves is what the reclamation rule in epoch.h needs.
  const uint64_t left = global_.fetch_add(1, std::memory_order_seq_cst);
  if (buffer->head_ != nullptr) {
    for (EpochRetired* node = buffer->head_; node != nullptr;
         node = node->epoch_next_) {
      node->epoch_stamp_ = left;
    }
    PushRetired(buffer->head_, buffer->tail_);
    retired_count_.fetch_add(buffer->count_, std::memory_order_relaxed);
    retired_metric_->Add(buffer->count_);
    buffer->head_ = nullptr;
    buffer->tail_ = nullptr;
    buffer->count_ = 0;
  }
  return left + 1;
}

uint64_t EpochDomain::min_pinned_epoch() const {
  uint64_t min_pinned = 0;
  for (size_t i = 0; i < kMaxSlots; ++i) {
    uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (e != 0 && (min_pinned == 0 || e < min_pinned)) {
      min_pinned = e;
    }
  }
  return min_pinned;
}

size_t EpochDomain::Collect() {
  const uint64_t global = global_.load(std::memory_order_seq_cst);
  const uint64_t min_pinned = min_pinned_epoch();
  const uint64_t horizon = min_pinned == 0
                               ? global
                               : (min_pinned < global ? min_pinned : global);
  oldest_pinned_age_->Set(
      min_pinned == 0 ? 0 : static_cast<int64_t>(global - min_pinned));

  // Take the whole shared list, free everything stamped before the
  // horizon, and push the rest back. No allocation either way; a
  // concurrent Collect simply finds the list (partly) empty.
  EpochRetired* node = retired_head_.exchange(nullptr,
                                              std::memory_order_acquire);
  EpochRetired* keep_head = nullptr;
  EpochRetired* keep_tail = nullptr;
  size_t freed = 0;
  while (node != nullptr) {
    EpochRetired* next = node->epoch_next_;
    if (node->epoch_stamp_ < horizon) {
      delete node;
      ++freed;
    } else {
      node->epoch_next_ = keep_head;
      keep_head = node;
      if (keep_tail == nullptr) {
        keep_tail = node;
      }
    }
    node = next;
  }
  if (keep_head != nullptr) {
    PushRetired(keep_head, keep_tail);
  }
  if (freed > 0) {
    retired_count_.fetch_sub(freed, std::memory_order_relaxed);
    reclaimed_metric_->Add(static_cast<uint64_t>(freed));
  }
  return freed;
}

}  // namespace provdb
