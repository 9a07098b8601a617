// Persistent work-stealing executor for the sweep workloads.
//
// The paper's evaluation is a pipeline of large batches (hundreds of sampled
// networks per figure cell), and before this subsystem existed every batch
// paid for a fresh std::thread pool spin-up/join. Executor keeps one set of
// worker threads alive for the life of the process (or of a test), executes
// index-space batches over per-worker deques with range stealing, and
// reports per-task completion through a serialized progress callback — the
// hook runner::SweepSession uses to stream checkpoint results in index
// order.
//
// Determinism: the executor assigns *which* thread runs fn(i), never *what*
// fn(i) computes. Callers that confine writes to per-index state (the
// ScenarioRunner contract) get bit-identical batch output for any worker
// count, including 1.
#ifndef ECONCAST_EXEC_EXECUTOR_H
#define ECONCAST_EXEC_EXECUTOR_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
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
  /// executor's workers plus the calling thread. Blocks until the batch is
  /// complete. `max_parallelism` caps the number of participating threads
  /// (0 = no cap beyond the pool size); 1 runs inline on the caller. The
  /// first exception thrown by any task is rethrown after the batch drains;
  /// remaining indices are abandoned.
  ///
  /// One batch runs at a time per executor: concurrent calls from other
  /// threads queue behind a submission mutex. A call made from inside one of
  /// this executor's own tasks (nested parallelism) runs inline serially
  /// instead of deadlocking on that mutex.
  void parallel_for(std::size_t n, const TaskFn& fn,
                    std::size_t max_parallelism = 0,
                    const ProgressFn& progress = nullptr);

  /// How many participants a parallel_for(n, ..., max_parallelism) called
  /// from this thread seeds: min(workers + 1, max_parallelism, n), or at
  /// most 1 for a nested call. parallel_for seeds participant c with the
  /// c-th of that many contiguous chunks (sizes n/p, +1 for the first n%p),
  /// which runner::cost_submit_order deals its LPT lists into.
  std::size_t participants(std::size_t n,
                           std::size_t max_parallelism) const noexcept;

  /// The process-wide shared executor (hardware_concurrency workers),
  /// constructed on first use and alive until exit. runner::ScenarioRunner
  /// and runner::SweepSession submit to it by default, so every batch in
  /// the process reuses one warm pool.
  static Executor& shared();

 private:
  /// A half-open index range; the unit of work ownership and stealing.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// One participant's deque. The owner takes single indices from its back
  /// range, lowest index first, so a seeded chunk runs in submission order;
  /// thieves split off the front half of the front range. A plain mutex per
  /// deque keeps this obviously correct — the tasks this project runs are
  /// simulations lasting milliseconds to hours, so queue overhead is noise.
  struct WorkDeque {
    std::mutex mu;
    std::deque<Range> ranges;
  };

  struct Batch {
    std::size_t n = 0;
    const TaskFn* fn = nullptr;
    const ProgressFn* progress = nullptr;
    std::vector<WorkDeque> deques;  // one per participant slot
    std::mutex slot_mu;
    std::size_t next_slot = 1;  // slot 0 is the submitting thread

    std::mutex progress_mu;
    std::size_t done = 0;  // tasks executed (guarded by progress_mu)

    std::mutex state_mu;
    std::condition_variable state_cv;
    std::size_t settled = 0;  // executed or abandoned (guarded by state_mu)
    std::size_t inside = 0;   // participants currently in work_on (state_mu)
    bool failed = false;
    std::exception_ptr first_error;
  };

  void worker_main();
  void work_on(Batch& b, std::size_t slot);
  bool pop_own(Batch& b, std::size_t slot, std::size_t& index);
  bool steal_into(Batch& b, std::size_t slot);
  void run_task(Batch& b, std::size_t index);
  void abandon_remaining(Batch& b);
  void run_serial(std::size_t n, const TaskFn& fn, const ProgressFn& progress);

  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  // serializes batches

  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  Batch* current_batch_ = nullptr;  // guarded by pool_mu_
  std::uint64_t batch_gen_ = 0;     // bumped on publish and retire
  bool stop_ = false;
};

/// True when the calling thread is currently executing inside an Executor
/// batch — a pool worker running tasks, or a submitting thread participating
/// in its own batch. Used to detect nested parallel_for calls (they run
/// inline).
bool on_executor_thread() noexcept;

}  // namespace econcast::exec

#endif  // ECONCAST_EXEC_EXECUTOR_H
