// Tests for the persistent executor: full index coverage (exactly once)
// across pool shapes, tasks starting in submission order, persistence of one
// pool across many batches, parallelism caps, the serialized per-task
// progress contract, exception propagation with abandonment, nested-call
// inlining, graceful shutdown, and race-free construction of the solvers
// sweeps build on executor threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "gibbs/symmetric.h"
#include "util/random.h"

namespace {

using namespace econcast;
using econcast::exec::Executor;
using econcast::exec::TaskProgress;

TEST(Executor, CoversAllIndicesExactlyOnce) {
  Executor pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{64}, std::size_t{257}}) {
    SCOPED_TRACE(n);
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(Executor, FirstStartedTasksAreTheLowestIndices) {
  // The cursor hands out indices in ascending order, so the first p tasks
  // to start are exactly 0..p-1. Each participant's first task blocks until
  // p tasks have started, so no participant can run ahead and start a
  // higher index before every participant holds one.
  for (const std::size_t p : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(p);
    Executor pool(p - 1);
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> threads;
    std::vector<std::size_t> first;
    pool.parallel_for(
        64,
        [&](std::size_t i) {
          std::unique_lock<std::mutex> lock(mu);
          if (!threads.insert(std::this_thread::get_id()).second) return;
          first.push_back(i);
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(30),
                      [&] { return first.size() >= p; });
        },
        p);
    std::sort(first.begin(), first.end());
    std::vector<std::size_t> lowest(p);
    std::iota(lowest.begin(), lowest.end(), std::size_t{0});
    EXPECT_EQ(first, lowest);
  }
}

TEST(Executor, ZeroTasksIsANoOp) {
  Executor pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Executor, MoreWorkersThanTasks) {
  Executor pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, PersistsAcrossManyBatches) {
  // The point of the refactor: one pool, many batches, no respawn. Run
  // enough batches that a per-batch thread spawn would be visibly slow and
  // assert every batch is complete and correct.
  Executor pool(4);
  for (int batch = 0; batch < 100; ++batch) {
    std::vector<int> out(50, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = batch + static_cast<int>(i);
    });
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch + static_cast<int>(i));
  }
}

TEST(Executor, MaxParallelismOneRunsInline) {
  Executor pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.parallel_for(
      ran.size(), [&](std::size_t i) { ran[i] = std::this_thread::get_id(); },
      /*max_parallelism=*/1);
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(Executor, WorkIsActuallyShared) {
  // With enough tasks and a pool, at least two distinct threads participate
  // (the caller plus >= 1 worker). Tasks block briefly so the caller cannot
  // race through the whole range alone.
  Executor pool(4);
  std::mutex mu;
  std::set<std::thread::id> threads;
  pool.parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads.size(), 2u);
}

TEST(Executor, ProgressReportsEveryTaskSerialized) {
  Executor pool(4);
  const std::size_t n = 100;
  std::vector<int> seen(n, 0);
  std::size_t calls = 0;
  std::size_t last_done = 0;
  pool.parallel_for(
      n, [](std::size_t) {}, 0, [&](const TaskProgress& p) {
        // Serialized contract: no lock needed, done advances by exactly 1.
        ++calls;
        EXPECT_EQ(p.done, last_done + 1);
        last_done = p.done;
        EXPECT_EQ(p.total, n);
        ASSERT_LT(p.index, n);
        seen[p.index] += 1;
      });
  EXPECT_EQ(calls, n);
  EXPECT_EQ(last_done, n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1);
}

TEST(Executor, ProgressAlsoFiresOnSerialPath) {
  Executor pool(4);
  std::vector<std::size_t> order;
  pool.parallel_for(
      5, [](std::size_t) {}, /*max_parallelism=*/1,
      [&](const TaskProgress& p) { order.push_back(p.index); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Executor, FirstExceptionPropagatesAndRestIsAbandoned) {
  Executor pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          calls.fetch_add(1);
                          if (i == 0) throw std::runtime_error("boom");
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(200));
                        }),
      std::runtime_error);
  // The failing index ran; how much of the tail other participants
  // started first depends on timing, so only the serial case is exact.
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 1000);

  // On one participant, a throw at index 0 leaves the rest unstarted.
  calls = 0;
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::size_t i) {
                     calls.fetch_add(1);
                     if (i == 0) throw std::runtime_error("boom");
                   },
                   /*max_parallelism=*/1),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Executor, UsableAfterAFailedBatch) {
  Executor pool(2);
  EXPECT_THROW(pool.parallel_for(
                   10, [](std::size_t i) {
                     if (i == 3) throw std::logic_error("bad cell");
                   }),
               std::logic_error);
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(Executor, NestedParallelForRunsInlineWithoutDeadlock) {
  Executor pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    // A task that itself calls parallel_for must not deadlock on the
    // executor's submission lock; it runs the nested batch inline.
    pool.parallel_for(5, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 5);
}

TEST(Executor, NestedCallFromSerialPathDoesNotDeadlock) {
  // The serial fast path (single task, or max_parallelism == 1) holds the
  // submission mutex while running the task inline; a nested parallel_for
  // from inside it must still be detected and inlined.
  Executor pool(4);
  std::atomic<int> inner{0};
  pool.parallel_for(1, [&](std::size_t) {
    pool.parallel_for(6, [&](std::size_t) { inner.fetch_add(1); });
  });
  pool.parallel_for(
      3,
      [&](std::size_t) {
        pool.parallel_for(2, [&](std::size_t) { inner.fetch_add(1); });
      },
      /*max_parallelism=*/1);
  EXPECT_EQ(inner.load(), 6 + 3 * 2);
}

TEST(Executor, SharedReturnsOneProcessWideInstance) {
  Executor& a = Executor::shared();
  Executor& b = Executor::shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> hits{0};
  a.parallel_for(32, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 32);
}

TEST(Executor, ConcurrentSubmittersSerializeSafely) {
  // Two external threads submit batches to one executor at once; the
  // submission mutex serializes them and both complete correctly.
  Executor pool(4);
  std::vector<int> a(200, 0), b(200, 0);
  std::thread other([&] {
    pool.parallel_for(b.size(), [&](std::size_t i) { b[i] = 2; });
  });
  pool.parallel_for(a.size(), [&](std::size_t i) { a[i] = 1; });
  other.join();
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), 200);
  EXPECT_EQ(std::accumulate(b.begin(), b.end(), 0), 400);
}

TEST(Executor, SymmetricGibbsBuildsConcurrently) {
  // Sweeps construct SymmetricGibbs on every executor thread at once; its
  // log-binomial table must not touch shared state (std::lgamma writes the
  // global signgam, which ThreadSanitizer reports as a race). Every thread's
  // instance must also match one built serially, bit for bit.
  const model::NodeParams params{10.0, 500.0, 500.0};
  const gibbs::SymmetricGibbs serial(40, params, model::Mode::kGroupput, 0.25);
  const double want = serial.dual_value(0.003);
  Executor pool(4);
  std::vector<double> got(64, 0.0);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    const gibbs::SymmetricGibbs g(40, params, model::Mode::kGroupput, 0.25);
    got[i] = g.dual_value(0.003);
  });
  for (const double x : got) EXPECT_EQ(x, want);
}

TEST(Executor, HeterogeneousP4SolvesConcurrently) {
  // Fig. 2 sweeps run the accelerated (P4) solver on every executor thread
  // at once, and one ExactGibbs may be shared by several threads: evaluation
  // scratch must belong to the caller, never to the instance. 64 solves of
  // distinct sampled networks, plus moments of one shared instance at each
  // task's own η, must equal the serial results bit for bit.
  util::Rng rng(64);
  std::vector<model::NodeSet> networks;
  for (std::size_t i = 0; i < 64; ++i)
    networks.push_back(model::sample_heterogeneous(5, 50.0 + 3.0 * i, rng));
  const auto mode_of = [](std::size_t i) {
    return i % 2 == 0 ? model::Mode::kGroupput : model::Mode::kAnyput;
  };
  const auto sigma_of = [](std::size_t i) { return i % 3 == 0 ? 0.1 : 0.25; };
  const gibbs::ExactGibbs shared(networks.front(), model::Mode::kGroupput,
                                 0.25);
  std::vector<gibbs::P4Result> serial(networks.size());
  std::vector<gibbs::Marginals> serial_moments(networks.size());
  for (std::size_t i = 0; i < networks.size(); ++i) {
    serial[i] = gibbs::solve_p4(networks[i], mode_of(i), sigma_of(i));
    serial_moments[i] = shared.marginals(serial[i].eta);
  }

  Executor pool(4);
  std::vector<gibbs::P4Result> got(networks.size());
  std::vector<gibbs::Marginals> got_moments(networks.size());
  pool.parallel_for(networks.size(), [&](std::size_t i) {
    got[i] = gibbs::solve_p4(networks[i], mode_of(i), sigma_of(i));
    got_moments[i] = shared.marginals(got[i].eta);
  });
  for (std::size_t i = 0; i < networks.size(); ++i) {
    EXPECT_EQ(got[i].eta, serial[i].eta) << i;
    EXPECT_EQ(got[i].alpha, serial[i].alpha) << i;
    EXPECT_EQ(got[i].beta, serial[i].beta) << i;
    EXPECT_EQ(got[i].throughput, serial[i].throughput) << i;
    EXPECT_EQ(got[i].objective, serial[i].objective) << i;
    EXPECT_EQ(got[i].dual, serial[i].dual) << i;
    EXPECT_EQ(got[i].iterations, serial[i].iterations) << i;
    EXPECT_EQ(got[i].converged, serial[i].converged) << i;
    EXPECT_EQ(got_moments[i].log_partition, serial_moments[i].log_partition);
    EXPECT_EQ(got_moments[i].alpha, serial_moments[i].alpha) << i;
    EXPECT_EQ(got_moments[i].beta, serial_moments[i].beta) << i;
    EXPECT_EQ(got_moments[i].entropy, serial_moments[i].entropy) << i;
  }
}

TEST(Executor, GracefulShutdownJoinsIdleWorkers) {
  // Construct, run nothing (and then something), destruct: no leaks, no
  // hangs — the destructor drains and joins.
  { Executor idle(3); }
  {
    Executor busy(3);
    std::atomic<int> hits{0};
    busy.parallel_for(17, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 17);
  }
  SUCCEED();
}

}  // namespace
