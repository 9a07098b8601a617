// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded from the benchmark's own code, around each public call
// into a library layer (protocol, sim, gibbs, lp, json, cache, runner). The
// spans of one cell are collected by a CellTrace on the thread that works on
// the cell and handed to the Tracer in one piece when the cell finishes, so
// recording costs a clock read per boundary and no lock on the hot path.
// Nothing is written until write_chrome_trace() at exit.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  const char* tag = "";   // e.g. the topology of a sim.run, "hit" / "miss"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the same span list, -1 for roots
  std::uint64_t cell = 0;    // the cell (request) the span worked for
  std::uint32_t thread = 0;
  double count = 0.0;  // work the call did, e.g. events for sim.run

  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
  /// The layer a span belongs to: its name up to the first '.'.
  std::string layer() const;
};

/// The spans of one cell, recorded on one thread. Spans nest strictly.
class CellTrace {
 public:
  explicit CellTrace(std::uint64_t cell) : cell_(cell) {}

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(CellTrace& trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set(const char* tag, double count = 0.0);

   private:
    CellTrace& trace_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t cell_;
  std::int64_t open_ = -1;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// Appends a finished cell's spans (thread-safe).
  void add(const CellTrace& cell);
  /// All spans recorded so far, parents re-indexed into this list.
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans as a Chrome trace-event file (chrome://tracing,
  /// Perfetto). Throws std::runtime_error when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::size_t> thread_ids_;  // hashed std::thread::id per slot
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
