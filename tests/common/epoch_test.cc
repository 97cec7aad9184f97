#include "common/epoch.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace provdb {
namespace {

// A retirable node whose liveness is externally observable: construction
// installs a magic self-check, destruction scribbles it and bumps a
// counter. Readers assert the self-check, so a premature free shows up as
// a plain test failure (and as a use-after-free under ASan).
constexpr uint64_t kMagic = 0x9E3779B97F4A7C15ull;

struct TestNode : EpochRetired {
  explicit TestNode(uint64_t v, std::atomic<uint64_t>* freed_counter)
      : value(v), check(v ^ kMagic), freed(freed_counter) {}
  ~TestNode() override {
    check = 0xDEADDEADDEADDEADull;
    freed->fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t value;
  uint64_t check;
  std::atomic<uint64_t>* freed;
};

TEST(EpochDomainTest, PinReturnsCurrentEpochAndReleasesSlot) {
  EpochDomain domain;
  EXPECT_EQ(domain.min_pinned_epoch(), 0u);
  {
    EpochDomain::Guard guard = domain.Pin();
    EXPECT_TRUE(guard.pinned());
    EXPECT_EQ(guard.epoch(), domain.current_epoch());
    EXPECT_EQ(domain.min_pinned_epoch(), guard.epoch());
  }
  EXPECT_EQ(domain.min_pinned_epoch(), 0u);
}

TEST(EpochDomainTest, GuardMoveTransfersThePin) {
  EpochDomain domain;
  EpochDomain::Guard outer;
  EXPECT_FALSE(outer.pinned());
  {
    EpochDomain::Guard inner = domain.Pin();
    const uint64_t e = inner.epoch();
    outer = std::move(inner);
    EXPECT_FALSE(inner.pinned());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(outer.pinned());
    EXPECT_EQ(outer.epoch(), e);
  }
  // The moved-from guard's destruction must not have released the slot.
  EXPECT_EQ(domain.min_pinned_epoch(), outer.epoch());
}

TEST(EpochDomainTest, CollectRequiresAnAdvancePastTheStamp) {
  EpochDomain domain;
  std::atomic<uint64_t> freed{0};
  EpochDomain::RetireBuffer retired;
  retired.Add(new TestNode(1, &freed));
  // Unlinked but not yet handed over at a publish point: a reader pinning
  // right now could still reach the node, so collect must not free it.
  EXPECT_EQ(domain.Collect(), 0u);
  EXPECT_EQ(freed.load(), 0u);
  domain.AdvanceAndRetire(&retired);
  EXPECT_EQ(domain.Collect(), 1u);
  EXPECT_EQ(freed.load(), 1u);
  EXPECT_EQ(domain.retired_pending(), 0u);
}

TEST(EpochDomainTest, PinnedReaderBlocksReclamationUntilRelease) {
  EpochDomain domain;
  std::atomic<uint64_t> freed{0};
  EpochDomain::Guard guard = domain.Pin();
  EpochDomain::RetireBuffer retired;
  retired.Add(new TestNode(7, &freed));
  domain.AdvanceAndRetire(&retired);
  // The reader pinned at the retire epoch may still hold a reference.
  EXPECT_EQ(domain.Collect(), 0u);
  EXPECT_EQ(domain.retired_pending(), 1u);
  guard = EpochDomain::Guard();  // release
  EXPECT_EQ(domain.Collect(), 1u);
  EXPECT_EQ(freed.load(), 1u);
}

TEST(EpochDomainTest, LateReaderDoesNotBlockOlderGarbage) {
  EpochDomain domain;
  std::atomic<uint64_t> freed{0};
  EpochDomain::RetireBuffer retired;
  retired.Add(new TestNode(1, &freed));
  domain.AdvanceAndRetire(&retired);
  // Pinned *after* the advance: can only reach post-advance structures,
  // so the pre-advance garbage is still collectible.
  EpochDomain::Guard guard = domain.Pin();
  EXPECT_EQ(domain.Collect(), 1u);
  EXPECT_EQ(freed.load(), 1u);
}

TEST(EpochDomainTest, MinPinnedEpochTracksTheOldestReader) {
  EpochDomain domain;
  EpochDomain::Guard old_reader = domain.Pin();
  const uint64_t old_epoch = old_reader.epoch();
  EpochDomain::RetireBuffer none;
  domain.AdvanceAndRetire(&none);
  EpochDomain::Guard new_reader = domain.Pin();
  EXPECT_GT(new_reader.epoch(), old_epoch);
  EXPECT_EQ(domain.min_pinned_epoch(), old_epoch);
  old_reader = EpochDomain::Guard();
  EXPECT_EQ(domain.min_pinned_epoch(), new_reader.epoch());
}

TEST(EpochDomainTest, DestructorDrainsEverythingStillRetired) {
  std::atomic<uint64_t> freed{0};
  {
    EpochDomain domain;
    EpochDomain::RetireBuffer retired;
    retired.Add(new TestNode(1, &freed));
    retired.Add(new TestNode(2, &freed));
    domain.AdvanceAndRetire(&retired);
    EXPECT_EQ(domain.retired_pending(), 2u);
    EXPECT_EQ(freed.load(), 0u);
  }
  EXPECT_EQ(freed.load(), 2u);
}

// ---------------------------------------------------------------------
// Randomized reader/writer/reclaimer stress. The writer publishes a
// chain of COW versions through an atomic pointer, retiring and
// collecting as it goes; readers pin, traverse, and self-check. Any
// premature reclamation trips the magic check (and ASan); any data race
// is TSan's to catch — the test names carry "Concurrent" so the TSan CI
// stage selects them.
// ---------------------------------------------------------------------

struct StressResult {
  uint64_t reads = 0;
  uint64_t failures = 0;
};

TEST(EpochDomainConcurrentTest, ConcurrentReadersNeverSeeFreedNodes) {
  const uint64_t kSeed = 0xEB0C0DE5ull;
  SCOPED_TRACE("seed=" + std::to_string(kSeed));
  constexpr int kReaders = 3;
  constexpr uint64_t kVersions = 4000;

  EpochDomain domain;
  std::atomic<uint64_t> freed{0};
  std::atomic<TestNode*> published{new TestNode(0, &freed)};
  std::atomic<bool> done{false};

  ThreadPool pool(kReaders + 1);
  std::vector<std::future<StressResult>> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    const uint64_t reader_seed = kSeed + static_cast<uint64_t>(r) + 1;
    readers.push_back(pool.Submit([&domain, &published, &done, reader_seed] {
      Rng rng(reader_seed);
      StressResult result;
      while (!done.load(std::memory_order_acquire)) {
        EpochDomain::Guard guard = domain.Pin();
        // A pin protects everything reachable from loads made under it;
        // vary how many loads share one pin to exercise slot reuse.
        const uint64_t loads = 1 + rng.NextBelow(4);
        for (uint64_t i = 0; i < loads; ++i) {
          TestNode* node = published.load(std::memory_order_acquire);
          ++result.reads;
          if (node->check != (node->value ^ kMagic)) {
            ++result.failures;
          }
        }
      }
      return result;
    }));
  }

  std::future<void> writer = pool.Submit([&] {
    Rng rng(kSeed);
    EpochDomain::RetireBuffer retired;
    for (uint64_t v = 1; v <= kVersions; ++v) {
      TestNode* next = new TestNode(v, &freed);
      TestNode* old = published.exchange(next, std::memory_order_acq_rel);
      retired.Add(old);
      domain.AdvanceAndRetire(&retired);
      if (rng.NextBelow(4) == 0) {
        domain.Collect();
      }
    }
    done.store(true, std::memory_order_release);
  });

  writer.get();
  uint64_t total_reads = 0;
  for (auto& reader : readers) {
    StressResult result = reader.get();
    total_reads += result.reads;
    EXPECT_EQ(result.failures, 0u);
  }
  EXPECT_GT(total_reads, 0u);

  // Quiesce: no readers pinned, final advance+collect drains everything
  // except the still-published current version.
  EpochDomain::RetireBuffer none;
  domain.AdvanceAndRetire(&none);
  domain.Collect();
  EXPECT_EQ(domain.retired_pending(), 0u);
  // The initial node plus every superseded version — everything except
  // the still-published final version — has been reclaimed.
  EXPECT_EQ(freed.load(), kVersions);
  delete published.load();
}

TEST(EpochDomainConcurrentTest, ConcurrentPinUnpinChurnKeepsCountsExact) {
  const uint64_t kSeed = 0x51075ull;
  SCOPED_TRACE("seed=" + std::to_string(kSeed));
  constexpr int kThreads = 8;
  constexpr uint64_t kPinsPerThread = 5000;

  EpochDomain domain;
  ThreadPool pool(kThreads);
  std::vector<std::future<void>> tasks;
  tasks.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const uint64_t thread_seed = kSeed + static_cast<uint64_t>(t);
    tasks.push_back(pool.Submit([&domain, thread_seed] {
      Rng rng(thread_seed);
      for (uint64_t i = 0; i < kPinsPerThread; ++i) {
        EpochDomain::Guard a = domain.Pin();
        ASSERT_TRUE(a.pinned());
        if (rng.NextBelow(2) == 0) {
          // Overlapping pins from one thread are legal: protection
          // attaches to the slot, not the thread.
          EpochDomain::Guard b = domain.Pin();
          ASSERT_GE(b.epoch(), a.epoch());
        }
      }
    }));
  }
  for (auto& task : tasks) {
    task.get();
  }
  EXPECT_EQ(domain.min_pinned_epoch(), 0u);
  EXPECT_EQ(domain.retired_pending(), 0u);
}

// One writer per shard, as in the sharded ingest pipeline: each writer
// unlinks its published node into its own RetireBuffer *before* it
// publishes the replacement (the store retires replaced index nodes
// during commit, ahead of the batch's publish), while the other writer
// keeps advancing the shared epoch. Stamping at AdvanceAndRetire keeps
// every still-published node alive for readers pinned at those newer
// epochs; stamping at the unlink would free it under them.
TEST(EpochDomainConcurrentTest, ConcurrentWritersNeverFreePublishedNodes) {
  const uint64_t kSeed = 0xEB0C0DE6ull;
  SCOPED_TRACE("seed=" + std::to_string(kSeed));
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr uint64_t kVersions = 20000;

  EpochDomain domain;
  std::atomic<uint64_t> freed{0};
  std::atomic<TestNode*> published[kWriters];
  for (auto& slot : published) slot.store(new TestNode(0, &freed));
  std::atomic<int> writers_left{kWriters};

  ThreadPool pool(kWriters + kReaders);
  std::vector<std::future<StressResult>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(pool.Submit([&] {
      StressResult result;
      while (writers_left.load(std::memory_order_acquire) > 0) {
        EpochDomain::Guard guard = domain.Pin();
        for (auto& slot : published) {
          TestNode* node = slot.load(std::memory_order_acquire);
          ++result.reads;
          if (node->check != (node->value ^ kMagic)) {
            ++result.failures;
          }
        }
      }
      return result;
    }));
  }
  std::vector<std::future<void>> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.push_back(pool.Submit([&, w] {
      Rng rng(kSeed + static_cast<uint64_t>(w));
      EpochDomain::RetireBuffer retired;
      for (uint64_t v = 1; v <= kVersions; ++v) {
        // Unlinked from the writer's working state, still published.
        retired.Add(published[w].load(std::memory_order_relaxed));
        for (uint64_t spin = rng.NextBelow(512); spin > 0; --spin) {
          (void)domain.current_epoch();
        }
        published[w].store(new TestNode(v, &freed),
                           std::memory_order_release);
        domain.AdvanceAndRetire(&retired);
        if (rng.NextBelow(4) == 0) {
          domain.Collect();
        }
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    }));
  }
  for (auto& writer : writers) writer.get();
  uint64_t total_reads = 0;
  for (auto& reader : readers) {
    StressResult result = reader.get();
    total_reads += result.reads;
    EXPECT_EQ(result.failures, 0u);
  }
  EXPECT_GT(total_reads, 0u);

  EpochDomain::RetireBuffer none;
  domain.AdvanceAndRetire(&none);
  domain.Collect();
  EXPECT_EQ(domain.retired_pending(), 0u);
  EXPECT_EQ(freed.load(), kWriters * kVersions);
  for (auto& slot : published) delete slot.load();
}

}  // namespace
}  // namespace provdb
