#include "trace.h"

#include <chrono>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "util/json.h"

namespace perfbench {

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::string Span::layer() const {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

CellTrace::Scope::Scope(CellTrace& trace, const char* name)
    : trace_(trace), index_(trace.spans_.size()) {
  Span span;
  span.name = name;
  span.parent = trace.open_;
  span.cell = trace.cell_;
  span.start_ns = now_ns();
  trace.spans_.push_back(span);
  trace.open_ = static_cast<std::int64_t>(index_);
}

CellTrace::Scope::~Scope() {
  Span& span = trace_.spans_[index_];
  span.end_ns = now_ns();
  trace_.open_ = span.parent;
}

void CellTrace::Scope::set(const char* tag, double count) {
  trace_.spans_[index_].tag = tag;
  trace_.spans_[index_].count = count;
}

void Tracer::add(const CellTrace& cell) {
  const std::size_t thread_hash =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t thread = 0;
  while (thread < thread_ids_.size() && thread_ids_[thread] != thread_hash)
    ++thread;
  if (thread == thread_ids_.size()) thread_ids_.push_back(thread_hash);
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : cell.spans()) {
    if (span.parent >= 0) span.parent += base;
    span.thread = thread;
    spans_.push_back(span);
  }
}

void Tracer::write_chrome_trace(const std::string& path) const {
  namespace json = econcast::util::json;
  json::Array events;
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json::Object args;
    args.set("id", static_cast<double>(i))
        .set("parent", static_cast<double>(s.parent))
        .set("cell", static_cast<double>(s.cell))
        .set("tag", std::string(s.tag))
        .set("count", s.count);
    json::Object event;
    event.set("name", std::string(s.name))
        .set("cat", s.layer())
        .set("ph", "X")
        .set("pid", 1.0)
        .set("tid", static_cast<double>(s.thread))
        .set("ts", static_cast<double>(s.start_ns) / 1e3)
        .set("dur", s.duration_ns() / 1e3)
        .set("args", json::Value(std::move(args)));
    events.emplace_back(std::move(event));
  }
  json::Object root;
  root.set("traceEvents", json::Value(std::move(events)));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json::dump(json::Value(std::move(root))) << "\n";
  if (!out.flush())
    throw std::runtime_error("cannot write trace file '" + path + "'");
}

}  // namespace perfbench
