#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace econcast::sim {

namespace {

/// Heap arity: four children share a cache line's worth of keys, which
/// keeps sift_down's child scan cheap while halving the depth of a binary
/// heap.
constexpr std::size_t kArity = 4;

/// The pop order: earliest time first, seq breaking ties.
bool before(const Event& a, const Event& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

std::size_t slot_index(NodeId node, EventKind kind) noexcept {
  return static_cast<std::size_t>(node) * kEventKindCount +
         static_cast<std::size_t>(kind);
}

std::size_t slot_of(const Event& e) noexcept {
  return slot_index(e.node, e.kind);
}

const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kTransition:
      return "kTransition";
    case EventKind::kPacketEnd:
      return "kPacketEnd";
    case EventKind::kIntervalEnd:
      return "kIntervalEnd";
    case EventKind::kPingSlot:
      return "kPingSlot";
    case EventKind::kEnergyDepleted:
      return "kEnergyDepleted";
    case EventKind::kCustom:
      return "kCustom";
  }
  return "unknown";
}

[[noreturn]] void slot_taken(const char* op, NodeId node, EventKind kind,
                             const char* holder) {
  throw std::logic_error(std::string("EventQueue::") + op + ": node " +
                         std::to_string(node) + " already has a live " +
                         holder + " " + kind_name(kind) + " event");
}

}  // namespace

EventQueue::EventQueue(Arena* arena)
    : heap_(ArenaAllocator<Event>(arena)),
      pos_(ArenaAllocator<std::uint32_t>(arena)) {}

void EventQueue::reserve_for_nodes(std::size_t n) {
  reserve(capacity_for_nodes(n));
  if (pos_.size() < n * kEventKindCount)
    pos_.resize(n * kEventKindCount, kAbsent);
}

std::size_t EventQueue::slot(NodeId node, EventKind kind) {
  const std::size_t index = slot_index(node, kind);
  if (index >= pos_.size())
    pos_.resize((static_cast<std::size_t>(node) + 1) * kEventKindCount,
                kAbsent);
  return index;
}

void EventQueue::push(double time, EventKind kind, NodeId node) {
  const std::size_t s = slot(node, kind);
  if (pos_[s] != kAbsent)
    slot_taken("push", node, kind,
               heap_[pos_[s]].cancellable ? "scheduled" : "durable");
  insert(Event{time, next_seq_++, kind, false, node}, s);
}

void EventQueue::schedule(double time, EventKind kind, NodeId node) {
  const std::size_t s = slot(node, kind);
  if (pos_[s] == kAbsent) {
    insert(Event{time, next_seq_++, kind, true, node}, s);
    return;
  }
  const std::size_t i = pos_[s];
  if (!heap_[i].cancellable) slot_taken("schedule", node, kind, "durable");
  heap_[i] = Event{time, next_seq_++, kind, true, node};
  fix(i);
  ++stats_.pushes;
  ++stats_.cancels;
}

void EventQueue::cancel(NodeId node, EventKind kind) {
  const std::size_t s = slot_index(node, kind);
  if (s >= pos_.size() || pos_[s] == kAbsent) return;
  const std::size_t i = pos_[s];
  if (!heap_[i].cancellable) return;
  erase_at(i);
  ++stats_.cancels;
}

const Event& EventQueue::top() const {
  if (heap_.empty()) throw std::logic_error("top of empty EventQueue");
  return heap_.front();
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("pop from empty EventQueue");
  const Event event = heap_.front();
  erase_at(0);
  ++stats_.pops;
  return event;
}

void EventQueue::clear() {
  for (const Event& e : heap_) pos_[slot_of(e)] = kAbsent;
  heap_.clear();
}

void EventQueue::insert(const Event& event, std::size_t slot) {
  pos_[slot] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(event);
  sift_up(heap_.size() - 1);
  ++stats_.pushes;
  stats_.peak_live = std::max(stats_.peak_live, heap_.size());
}

void EventQueue::erase_at(std::size_t i) {
  pos_[slot_of(heap_[i])] = kAbsent;
  const Event last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  fix(i);
}

void EventQueue::fix(std::size_t i) {
  if (i > 0 && before(heap_[i], heap_[(i - 1) / kArity]))
    sift_up(i);
  else
    sift_down(i);
}

void EventQueue::sift_up(std::size_t i) {
  const Event event = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(event, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, event);
}

void EventQueue::sift_down(std::size_t i) {
  const Event event = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], event)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, event);
}

void EventQueue::place(std::size_t i, const Event& event) {
  heap_[i] = event;
  pos_[slot_of(event)] = static_cast<std::uint32_t>(i);
}

}  // namespace econcast::sim
