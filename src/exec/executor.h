// Persistent executor for the sweep workloads.
//
// The paper's evaluation is a pipeline of large batches (hundreds of sampled
// networks per figure cell), and before this subsystem existed every batch
// paid for a fresh std::thread pool spin-up/join. Executor keeps one set of
// worker threads alive for the life of the process (or of a test), runs
// index-space batches on them, and reports per-task completion through a
// serialized progress callback — the hook runner::SweepSession uses to
// stream checkpoint results in index order.
//
// Every participant takes its next index from one shared cursor, so tasks
// start in submission order: the k-th task taken is fn(k), whichever
// participant takes it. A caller that wants a schedule
// (runner::cost_submit_order's longest-first list) expresses it as the index
// order alone. The tasks this project runs are simulations lasting
// milliseconds to hours, so the shared cursor's contention is noise.
//
// Determinism: the executor assigns *which* thread runs fn(i), never *what*
// fn(i) computes. Callers that confine writes to per-index state (the
// ScenarioRunner contract) get bit-identical batch output for any worker
// count, including 1.
#ifndef ECONCAST_EXEC_EXECUTOR_H
#define ECONCAST_EXEC_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace econcast::exec {

/// The thread cap every sweep layer uses: `requested`, or
/// std::thread::hardware_concurrency() (at least 1) when it is 0.
std::size_t resolve_threads(std::size_t requested) noexcept;

/// Per-task progress notification: fn(index) has completed, `done` of
/// `total` tasks are finished (monotone — invocations are serialized under a
/// mutex, so `done` increases by exactly 1 per call and the callback needs
/// no synchronization of its own). Invoked on whichever thread ran the task.
struct TaskProgress {
  std::size_t index = 0;
  std::size_t done = 0;
  std::size_t total = 0;
};

class Executor {
 public:
  using TaskFn = std::function<void(std::size_t)>;
  using ProgressFn = std::function<void(const TaskProgress&)>;

  /// Spawns resolve_threads(num_threads) persistent workers. Workers sleep
  /// on a condition variable between batches.
  explicit Executor(std::size_t num_threads = 0);

  /// Graceful shutdown: blocks until any in-flight batch has drained (a
  /// batch blocks its submitter, so destroying an executor mid-batch is only
  /// possible from another thread), then stops and joins every worker.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t num_workers() const noexcept { return workers_.size(); }

  /// Runs fn(i) for every i in [0, n), distributing indices across this
  /// executor's workers plus the calling thread; tasks start in ascending
  /// index order. Blocks until the batch is complete. `max_parallelism`
  /// caps the number of participating threads (0 = no cap beyond the pool
  /// size); 1 runs inline on the caller. The first exception thrown by any
  /// task is rethrown after the batch drains; indices not yet started are
  /// abandoned.
  ///
  /// One batch runs at a time per executor: concurrent calls from other
  /// threads queue behind a submission mutex. A call made from inside one of
  /// this executor's own tasks (nested parallelism) runs inline serially
  /// instead of deadlocking on that mutex.
  void parallel_for(std::size_t n, const TaskFn& fn,
                    std::size_t max_parallelism = 0,
                    const ProgressFn& progress = nullptr);

  /// The process-wide shared executor (hardware_concurrency workers),
  /// constructed on first use and alive until exit. runner::ScenarioRunner
  /// and runner::SweepSession submit to it by default, so every batch in
  /// the process reuses one warm pool.
  static Executor& shared();

 private:
  /// One parallel_for call, on its submitter's stack. Participants take
  /// indices from `next` until it reaches `n`; a task that throws stores `n`
  /// so no participant takes another. Every taken task has finished once
  /// `inside` is 0 after the batch is retired.
  struct Batch {
    std::size_t n = 0;
    std::size_t max_inside = 0;  // participant cap: min(workers + 1,
                                 // max_parallelism, n)
    const TaskFn* fn = nullptr;
    const ProgressFn* progress = nullptr;
    std::atomic<std::size_t> next{0};

    std::mutex progress_mu;
    std::size_t done = 0;  // tasks executed (guarded by progress_mu)

    std::mutex state_mu;
    std::condition_variable state_cv;
    std::size_t inside = 0;  // participants currently in work_on (state_mu)
    std::exception_ptr first_error;  // guarded by state_mu
  };

  void worker_main();
  void work_on(Batch& b);
  void run_serial(std::size_t n, const TaskFn& fn, const ProgressFn& progress);

  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  // serializes batches

  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  Batch* current_batch_ = nullptr;  // guarded by pool_mu_
  std::uint64_t batch_gen_ = 0;     // bumped on publish and retire
  bool stop_ = false;
};

}  // namespace econcast::exec

#endif  // ECONCAST_EXEC_EXECUTOR_H
