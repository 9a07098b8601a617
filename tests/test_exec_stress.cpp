// Executor stress suite: the concurrency patterns the plain unit tests in
// test_exec.cpp exercise one at a time, here hammered together so a data
// race in the shared index cursor, batch join and retirement, progress
// serialization, or shutdown has a real chance to interleave. This binary is the primary
// TSan target (built in CI with -DECONCAST_SANITIZE=thread); keep the
// workloads small — under TSan every iteration costs ~10-20x.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/executor.h"

namespace {

using econcast::exec::Executor;
using econcast::exec::TaskProgress;

// Deterministic per-test pseudo-randomness (the determinism lint bans
// ambient RNG even in tests; a fixed LCG keeps every stress run identical).
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

TEST(ExecutorStress, ManySubmittersManyBatches) {
  // Several external threads each push a stream of batches with varying
  // sizes through one pool; every index of every batch must run exactly
  // once. This is the contended version of ConcurrentSubmittersSerializeSafely.
  Executor pool(4);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kBatchesPerSubmitter = 25;
  std::vector<std::atomic<std::uint64_t>> totals(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      Lcg rng(1000 + s);
      for (std::size_t b = 0; b < kBatchesPerSubmitter; ++b) {
        const std::size_t n = 1 + rng.next() % 97;
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
        std::uint64_t batch_total = 0;
        for (std::size_t i = 0; i < n; ++i) {
          batch_total += static_cast<std::uint64_t>(hits[i].load());
        }
        totals[s].fetch_add(batch_total == n ? batch_total : 0);
      }
    });
  }
  std::uint64_t expected = 0;
  {
    Lcg replay(0);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      Lcg rng(1000 + s);
      for (std::size_t b = 0; b < kBatchesPerSubmitter; ++b)
        expected += 1 + rng.next() % 97;
    }
    (void)replay;
  }
  for (std::thread& t : submitters) t.join();
  std::uint64_t observed = 0;
  for (auto& t : totals) observed += t.load();
  EXPECT_EQ(observed, expected);
}

TEST(ExecutorStress, NestedBatchesUnderContention) {
  // Outer batches whose tasks submit nested batches (which must inline)
  // while other external threads submit their own outer batches.
  Executor pool(3);
  std::atomic<std::uint64_t> inner_total{0};
  auto outer = [&](std::size_t reps) {
    for (std::size_t r = 0; r < reps; ++r) {
      pool.parallel_for(8, [&](std::size_t) {
        pool.parallel_for(4,
                          [&](std::size_t) { inner_total.fetch_add(1); });
      });
    }
  };
  std::thread rival([&] { outer(10); });
  outer(10);
  rival.join();
  EXPECT_EQ(inner_total.load(), 2u * 10u * 8u * 4u);
}

TEST(ExecutorStress, ExceptionsUnderContentionLeavePoolUsable) {
  // Failing and succeeding batches interleave from two submitters; every
  // failing batch must throw exactly its own error, every succeeding batch
  // must be complete, and the pool must stay healthy throughout.
  Executor pool(4);
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> completed{0};
  auto mixed = [&](unsigned salt) {
    for (int b = 0; b < 20; ++b) {
      const bool fail = (b + salt) % 3 == 0;
      try {
        pool.parallel_for(64, [&](std::size_t i) {
          if (fail && i == 13) throw std::runtime_error("seeded failure");
          completed.fetch_add(1);
        });
        EXPECT_FALSE(fail);
      } catch (const std::runtime_error&) {
        EXPECT_TRUE(fail);
        failures.fetch_add(1);
      }
    }
  };
  std::thread rival([&] { mixed(1); });
  mixed(0);
  rival.join();
  // salt 0: b % 3 == 0 for 7 of 20; salt 1: (b+1) % 3 == 0 for 6 of 20.
  EXPECT_EQ(failures.load(), 7 + 6);
  // Abandonment means failing batches run a subset; succeeding batches are
  // complete, so at least those indices all executed.
  EXPECT_GE(completed.load(), (20u - 7u + 20u - 6u) * 64u);
  std::atomic<int> after{0};
  pool.parallel_for(32, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 32);
}

TEST(ExecutorStress, ProgressSerializationHoldsUnderContention) {
  // The progress contract (serialized, done advances by exactly one) is
  // what lets SweepSession write checkpoints without a lock. Verify it on
  // purpose under heavy contention for the cursor: tiny tasks, many
  // participants — the callback body deliberately touches unsynchronized
  // state.
  Executor pool(4);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 257;
    std::size_t calls = 0;      // unsynchronized on purpose
    std::size_t last_done = 0;  // ditto
    std::vector<int> seen(n, 0);
    pool.parallel_for(
        n, [](std::size_t) {}, 0, [&](const TaskProgress& p) {
          ++calls;
          EXPECT_EQ(p.done, last_done + 1);
          last_done = p.done;
          seen[p.index] += 1;
        });
    ASSERT_EQ(calls, n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(seen[i], 1);
  }
}

TEST(ExecutorStress, ChurnConstructDestroyWhileWorking) {
  // Short-lived pools built, used for a couple of batches and destroyed in
  // a loop — the shutdown path (stop flag, notify, join) runs dozens of
  // times, including immediately after a batch retires.
  for (int round = 0; round < 30; ++round) {
    Executor pool(1 + round % 4);
    std::atomic<int> hits{0};
    pool.parallel_for(17, [&](std::size_t) { hits.fetch_add(1); });
    pool.parallel_for(1, [&](std::size_t) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), 18);
  }
}

TEST(ExecutorStress, DestructionRacesIdleWakeups) {
  // A pool destroyed right after its last batch — while workers may still
  // be between the batch-retired wakeup and the next wait — must join
  // cleanly. Vary batch sizes so some rounds end with participants still
  // taking indices.
  Lcg rng(7);
  for (int round = 0; round < 30; ++round) {
    const std::size_t n = 1 + rng.next() % 33;
    std::vector<std::atomic<int>> hits(n);
    {
      Executor pool(3);
      pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    }
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

}  // namespace
