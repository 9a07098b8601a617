#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace econcast::sim {

namespace {

/// Heap arity: four children share a cache line's worth of keys, which
/// keeps sift_down's child scan cheap while halving the depth of a binary
/// heap.
constexpr std::size_t kArity = 4;

/// A lane's first ring; it doubles whenever it fills.
constexpr std::size_t kFirstLaneCapacity = 8;

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

/// The batch crossover of event_queue.h: defer when the announced edits'
/// sifts (kArity·⌊log_kArity n⌋ comparisons each) cost more than Floyd's
/// heapify (n + kArity·n/(kArity − 1) comparisons), with n the heap size at
/// open plus the edits.
bool defer_sifts(std::size_t edits, std::size_t heap_size) noexcept {
  const std::size_t n = heap_size + edits;
  std::size_t levels = 0;
  for (std::size_t m = n; m >= kArity; m /= kArity) ++levels;
  return edits * kArity * levels * (kArity - 1) > n * (2 * kArity - 1);
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
      pos_(ArenaAllocator<std::uint32_t>(arena)) {
  for (Lane& lane : lanes_)
    lane.ring = ArenaVector<Event>(ArenaAllocator<Event>(arena));
}

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
  const std::uint32_t at = pos_[s];
  if (at != kAbsent)
    slot_taken("push", node, kind,
               at != kInLane && heap_[at].cancellable ? "scheduled"
                                                      : "durable");
  const Event event{time, next_seq_++, kind, false, node};
  Lane& lane = lanes_[static_cast<std::size_t>(kind)];
  if (lane.count != 0 && !(time >= lane.back().time)) {
    insert(event, s);  // earlier than the lane's tail
    return;
  }
  lane_append(lane, event);
  pos_[s] = kInLane;
  ++lane_live_;
  count_push();
}

void EventQueue::schedule(double time, EventKind kind, NodeId node) {
  const std::size_t s = slot(node, kind);
  if (pos_[s] == kAbsent) {
    insert(Event{time, next_seq_++, kind, true, node}, s);
    return;
  }
  const std::size_t i = pos_[s];
  if (i == kInLane || !heap_[i].cancellable)
    slot_taken("schedule", node, kind, "durable");
  heap_[i] = Event{time, next_seq_++, kind, true, node};
  fix(i);
  ++stats_.pushes;
  ++stats_.cancels;
}

void EventQueue::cancel(NodeId node, EventKind kind) {
  const std::size_t s = slot_index(node, kind);
  if (s >= pos_.size()) return;
  const std::size_t i = pos_[s];
  if (i == kAbsent || i == kInLane || !heap_[i].cancellable) return;
  erase_at(i);
  ++stats_.cancels;
}

EventQueue::Batch::Batch(EventQueue& queue, std::size_t edits)
    : queue_(queue) {
  if (queue_.batch_open_)
    throw std::logic_error("EventQueue::Batch: a batch is already open");
  queue_.batch_open_ = true;
  queue_.deferred_ = defer_sifts(edits, queue_.heap_.size());
}

EventQueue::Batch::~Batch() {
  if (queue_.deferred_) {
    queue_.deferred_ = false;
    queue_.heapify();
  }
  queue_.batch_open_ = false;
}

const Event& EventQueue::top() const {
  if (batch_open_) throw std::logic_error("top inside an EventQueue batch");
  if (empty()) throw std::logic_error("top of empty EventQueue");
  const std::size_t source = front_source();
  return source == kHeapSource ? heap_.front() : lanes_[source].front();
}

Event EventQueue::pop() {
  if (batch_open_) throw std::logic_error("pop inside an EventQueue batch");
  if (empty()) throw std::logic_error("pop from empty EventQueue");
  const std::size_t source = front_source();
  Event event;
  if (source == kHeapSource) {
    event = heap_.front();
    erase_at(0);
  } else {
    Lane& lane = lanes_[source];
    event = lane.front();
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    --lane.count;
    --lane_live_;
    pos_[slot_of(event)] = kAbsent;
  }
  ++stats_.pops;
  return event;
}

void EventQueue::clear() {
  for (const Event& e : heap_) pos_[slot_of(e)] = kAbsent;
  heap_.clear();
  for (Lane& lane : lanes_) {
    for (std::size_t i = 0; i < lane.count; ++i)
      pos_[slot_of(lane.ring[(lane.head + i) & (lane.ring.size() - 1)])] =
          kAbsent;
    lane.head = 0;
    lane.count = 0;
  }
  lane_live_ = 0;
}

void EventQueue::count_push() noexcept {
  ++stats_.pushes;
  stats_.peak_live = std::max(stats_.peak_live, size());
}

void EventQueue::insert(const Event& event, std::size_t slot) {
  pos_[slot] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(event);
  if (!deferred_) sift_up(heap_.size() - 1);
  count_push();
}

void EventQueue::lane_append(Lane& lane, const Event& event) {
  const std::size_t capacity = lane.ring.size();
  if (lane.count == capacity) {
    ArenaVector<Event> grown(capacity ? 2 * capacity : kFirstLaneCapacity,
                             Event{}, lane.ring.get_allocator());
    for (std::size_t i = 0; i < lane.count; ++i)
      grown[i] = lane.ring[(lane.head + i) & (capacity - 1)];
    lane.ring = std::move(grown);
    lane.head = 0;
  }
  lane.ring[(lane.head + lane.count) & (lane.ring.size() - 1)] = event;
  ++lane.count;
}

std::size_t EventQueue::front_source() const noexcept {
  std::size_t source = kHeapSource;
  const Event* first = heap_.empty() ? nullptr : &heap_.front();
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const Lane& lane = lanes_[k];
    if (lane.count != 0 &&
        (first == nullptr || before(lane.front(), *first))) {
      first = &lane.front();
      source = k;
    }
  }
  return source;
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
  if (deferred_) return;
  if (i > 0 && before(heap_[i], heap_[(i - 1) / kArity]))
    sift_up(i);
  else
    sift_down(i);
}

void EventQueue::heapify() {
  const std::size_t n = heap_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) sift_down(i);
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
