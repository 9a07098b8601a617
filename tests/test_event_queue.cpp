// The indexed (node, kind) event queue: a randomized differential harness
// against a brute-force reference model (including the per-kind lanes that
// hold monotone durable timers, mixed with out-of-order durable pushes that
// take the heap), plus the slot contract (durable collisions, in-place
// schedule, cancel), batches (deferred and immediate, against the same
// reference), the live-count size(), reuse after clear(), and the shared
// reserve_for_nodes capacity policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "util/random.h"

namespace {

using namespace econcast;
using sim::Event;
using sim::EventKind;
using sim::EventQueue;
using sim::NodeId;

// ------------------------------------------------------- reference model --

/// The contract, spelled out brute force: a vector of live events holding
/// at most one per (node, kind) slot, popped by an O(n) (time, seq) min.
/// push/schedule return nullptr on success; where EventQueue must throw they
/// return the holder its message names ("scheduled" or "durable").
class ReferenceQueue {
 public:
  const char* push(double time, EventKind kind, NodeId node) {
    const auto it = find(node, kind);
    if (it != events_.end()) return it->cancellable ? "scheduled" : "durable";
    add(Event{time, next_seq_++, kind, false, node});
    return nullptr;
  }

  const char* schedule(double time, EventKind kind, NodeId node) {
    const auto it = find(node, kind);
    if (it == events_.end()) {
      add(Event{time, next_seq_++, kind, true, node});
      return nullptr;
    }
    if (!it->cancellable) return "durable";
    *it = Event{time, next_seq_++, kind, true, node};
    ++stats_.pushes;
    ++stats_.cancels;
    return nullptr;
  }

  void cancel(NodeId node, EventKind kind) {
    const auto it = find(node, kind);
    if (it == events_.end() || !it->cancellable) return;
    events_.erase(it);
    ++stats_.cancels;
  }

  const Event& top() const { return *earliest(); }

  Event pop() {
    const auto it = earliest();
    const Event e = *it;
    events_.erase(it);
    ++stats_.pops;
    return e;
  }

  void clear() { events_.clear(); }

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const sim::QueueStats& stats() const { return stats_; }

 private:
  std::vector<Event>::iterator find(NodeId node, EventKind kind) {
    return std::find_if(events_.begin(), events_.end(), [&](const Event& e) {
      return e.node == node && e.kind == kind;
    });
  }

  std::vector<Event>::const_iterator earliest() const {
    return std::min_element(events_.begin(), events_.end(),
                            [](const Event& a, const Event& b) {
                              if (a.time != b.time) return a.time < b.time;
                              return a.seq < b.seq;
                            });
  }

  void add(const Event& e) {
    events_.push_back(e);
    ++stats_.pushes;
    stats_.peak_live = std::max(stats_.peak_live, events_.size());
  }

  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  sim::QueueStats stats_;
};

void expect_same_event(const Event& a, const Event& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.cancellable, b.cancellable);
}

/// Runs `call`, expecting std::logic_error whose message names `holder`
/// when it is non-null, and no exception otherwise.
template <typename Call>
void expect_outcome(const char* holder, Call call) {
  if (holder == nullptr) {
    call();
    return;
  }
  try {
    call();
    ADD_FAILURE() << "expected a slot collision naming " << holder;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(holder), std::string::npos)
        << e.what();
  }
}

/// Applies one operation sequence to the queue and to the reference model,
/// checking after every call that the two agree on throw/no-throw (and the
/// holder the error names), size(), empty(), top(), every QueueStats field
/// and every popped event. Calls may run inside an EventQueue::Batch, where
/// top() is off limits until the batch closes.
class DifferentialHarness {
 public:
  /// Opens a batch announcing `edits`; returns whether it defers sifts.
  bool open_batch(std::size_t edits) {
    batch_.emplace(queue_, edits);
    return batch_->deferred();
  }

  void close_batch() {
    batch_.reset();
    check();
  }

  void push(double time, EventKind kind, NodeId node) {
    expect_outcome(ref_.push(time, kind, node),
                   [&] { queue_.push(time, kind, node); });
    check();
  }

  void schedule(double time, EventKind kind, NodeId node) {
    expect_outcome(ref_.schedule(time, kind, node),
                   [&] { queue_.schedule(time, kind, node); });
    check();
  }

  void cancel(NodeId node, EventKind kind) {
    ref_.cancel(node, kind);
    queue_.cancel(node, kind);
    check();
  }

  /// Pops both (expecting a live event) and returns the popped time.
  double pop() {
    const Event want = ref_.pop();
    expect_same_event(queue_.pop(), want);
    check();
    return want.time;
  }

  void clear() {
    ref_.clear();
    queue_.clear();
    check();
  }

  bool empty() const { return ref_.empty(); }

  void drain_and_compare_stats() {
    while (!empty()) pop();
    check();
  }

 private:
  void check() {
    ASSERT_EQ(queue_.size(), ref_.size());
    ASSERT_EQ(queue_.empty(), ref_.empty());
    ASSERT_EQ(queue_.stats().pushes, ref_.stats().pushes);
    ASSERT_EQ(queue_.stats().pops, ref_.stats().pops);
    ASSERT_EQ(queue_.stats().cancels, ref_.stats().cancels);
    ASSERT_EQ(queue_.stats().peak_live, ref_.stats().peak_live);
    if (!ref_.empty() && !batch_) expect_same_event(queue_.top(), ref_.top());
  }

  EventQueue queue_;
  ReferenceQueue ref_;
  std::optional<EventQueue::Batch> batch_;
};

EventKind random_kind(util::Rng& rng) {
  return static_cast<EventKind>(rng.uniform_int(sim::kEventKindCount));
}

// ---------------------------------------------------- differential tests --

TEST(EventQueueDifferential, SimLikeMonotoneWorkload) {
  // The simulator's pattern: time only moves forward, pushes land at
  // now + gap with wildly mixed scales (packet ends at +1, sleepers far
  // out), schedules replace pending transitions, occasional bare cancels.
  for (const std::uint64_t seed : {1u, 7u, 23u, 1234u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint64_t n = 40;
    double now = 0.0;
    for (int op = 0; op < 20000; ++op) {
      const double r = rng.uniform();
      const auto node = static_cast<NodeId>(rng.uniform_int(n));
      // Mixed-scale gaps: 1e-3 .. 1e5.
      const double gap = rng.exponential(1.0) *
                         (rng.uniform() < 0.1 ? 1e5 : 1.0) *
                         (rng.uniform() < 0.3 ? 1e-3 : 1.0);
      if (r < 0.35) {
        q.schedule(now + gap, random_kind(rng), node);
      } else if (r < 0.45) {
        q.push(now + gap, random_kind(rng), node);
      } else if (r < 0.55) {
        q.cancel(node, random_kind(rng));
      } else if (!q.empty()) {
        now = q.pop();
      }
    }
    q.drain_and_compare_stats();
  }
}

TEST(EventQueueDifferential, OutOfOrderTimesAndDenseTies) {
  // Not a pattern the simulators produce: times earlier than the last pop,
  // a coarse grid so exact ties are frequent, and cancel storms. Ties must
  // break by seq, i.e. by the order of the push()/schedule() calls.
  for (const std::uint64_t seed : {3u, 99u, 4321u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint64_t n = 12;
    for (int op = 0; op < 8000; ++op) {
      const double r = rng.uniform();
      const auto node = static_cast<NodeId>(rng.uniform_int(n));
      const double t = std::floor(rng.uniform() * 1000.0) / 10.0;
      if (r < 0.40) {
        q.schedule(t, random_kind(rng), node);
      } else if (r < 0.55) {
        q.push(t, random_kind(rng), node);
      } else if (r < 0.65) {
        q.cancel(node, random_kind(rng));
      } else if (!q.empty()) {
        q.pop();
      }
    }
    q.drain_and_compare_stats();
  }
}

TEST(EventQueueDifferential, LaneTimersMixedWithOutOfOrderDurables) {
  // The simulator's durable timers: per-kind constant offsets from a
  // forward-moving clock (interval ends at now + τ, packet ends at now + 1),
  // which keep each kind's lane sorted, interleaved with durable pushes
  // earlier than a lane's tail (they take the heap) and with cancellable
  // schedules. Times sit on a half-unit grid so lane heads, heap events and
  // schedules tie exactly and must break by seq. Cancels and schedules aim
  // at lane-held slots too (no-op and throw), and clear() hits populated
  // lanes.
  for (const std::uint64_t seed : {5u, 61u, 808u, 2718u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint64_t n = 16;
    const double tau = 8.0;
    double now = 0.0;
    const auto half_units = [&](std::uint64_t count) {
      return static_cast<double>(rng.uniform_int(count)) / 2.0;
    };
    for (int op = 0; op < 20000; ++op) {
      const double r = rng.uniform();
      const auto node = static_cast<NodeId>(rng.uniform_int(n));
      if (r < 0.18) {
        q.push(now + tau, EventKind::kIntervalEnd, node);
      } else if (r < 0.33) {
        q.push(now + 1.0, EventKind::kPacketEnd, node);
      } else if (r < 0.43) {
        // Out of order for the kind's lane whenever it lands before the
        // tail; ties with lane entries when it lands on one.
        const auto kind = rng.uniform() < 0.5 ? EventKind::kIntervalEnd
                                              : EventKind::kPacketEnd;
        q.push(now + half_units(2 * static_cast<std::uint64_t>(tau)), kind,
               node);
      } else if (r < 0.46) {
        q.push(now + half_units(64), random_kind(rng), node);
      } else if (r < 0.62) {
        const auto kind = rng.uniform() < 0.8 ? EventKind::kTransition
                                              : EventKind::kEnergyDepleted;
        q.schedule(now + half_units(20), kind, node);
      } else if (r < 0.64) {
        q.schedule(now + half_units(20), random_kind(rng), node);
      } else if (r < 0.70) {
        q.cancel(node, random_kind(rng));
      } else if (r < 0.7005) {
        q.clear();
      } else if (!q.empty()) {
        now = q.pop();
      }
    }
    q.drain_and_compare_stats();
  }
}

TEST(EventQueueDifferential, BurstsOfSimultaneousSchedules) {
  DifferentialHarness q;
  for (int round = 0; round < 50; ++round) {
    const double t = static_cast<double>(round);
    for (NodeId i = 0; i < 64; ++i)
      q.schedule(t + 0.5, EventKind::kTransition, i);
    for (NodeId i = 0; i < 64; i += 2) q.cancel(i, EventKind::kTransition);
    for (int k = 0; k < 40 && !q.empty(); ++k) q.pop();
  }
  q.drain_and_compare_stats();
}

TEST(EventQueueDifferential, BatchesOfMixedEditsMatchReference) {
  // Random schedule/cancel/push mixes inside batches of varying size,
  // between pops. Small batches on a large heap sift as they go; large ones
  // defer to one heapify at close. Either way the pop sequence, top() after
  // the batch and every QueueStats counter must match the reference.
  for (const std::uint64_t seed : {2u, 17u, 404u}) {
    util::Rng rng(seed);
    DifferentialHarness q;
    const std::uint64_t n = 96;
    double now = 0.0;
    int deferred = 0;
    int immediate = 0;
    for (int round = 0; round < 600; ++round) {
      const std::size_t edits = rng.uniform() < 0.5
                                    ? rng.uniform_int(4)
                                    : 8 + rng.uniform_int(120);
      if (q.open_batch(edits))
        ++deferred;
      else
        ++immediate;
      for (std::size_t k = 0; k < edits; ++k) {
        const double r = rng.uniform();
        const auto node = static_cast<NodeId>(rng.uniform_int(n));
        const double gap = rng.exponential(1.0) * (r < 0.1 ? 50.0 : 1.0);
        if (r < 0.45) {
          q.schedule(now + gap, rng.uniform() < 0.8
                                    ? EventKind::kTransition
                                    : EventKind::kEnergyDepleted,
                     node);
        } else if (r < 0.85) {
          q.cancel(node, rng.uniform() < 0.8 ? EventKind::kTransition
                                             : EventKind::kEnergyDepleted);
        } else if (r < 0.95) {
          // A durable timer: the lane when monotone, else the heap.
          q.push(now + (r < 0.9 ? 1.0 : gap), EventKind::kPacketEnd, node);
        } else {
          q.push(now + gap, random_kind(rng), node);
        }
      }
      q.close_batch();
      for (std::uint64_t k = rng.uniform_int(6); k > 0 && !q.empty(); --k)
        now = q.pop();
    }
    q.drain_and_compare_stats();
    EXPECT_GT(deferred, 0);
    EXPECT_GT(immediate, 0);
  }
}

// ---------------------------------------------------------- slot contract --

TEST(EventQueue, DurableSlotCollisionThrowsNamingNodeAndKind) {
  EventQueue q;
  q.push(1.0, EventKind::kPacketEnd, 3);
  try {
    q.push(2.0, EventKind::kPacketEnd, 3);
    FAIL() << "second durable push into a live slot must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 3"), std::string::npos) << what;
    EXPECT_NE(what.find("kPacketEnd"), std::string::npos) << what;
  }
  // A durable event cannot be superseded by schedule() either, and a
  // scheduled one blocks push() into its slot.
  EXPECT_THROW(q.schedule(2.0, EventKind::kPacketEnd, 3), std::logic_error);
  q.schedule(5.0, EventKind::kTransition, 3);
  EXPECT_THROW(q.push(6.0, EventKind::kTransition, 3), std::logic_error);
  // The failed calls changed nothing.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().time, 1.0);
  // Once popped, the slot takes a new durable event.
  q.push(2.0, EventKind::kPacketEnd, 3);
  EXPECT_EQ(q.pop().kind, EventKind::kPacketEnd);
  EXPECT_EQ(q.pop().kind, EventKind::kTransition);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LaneHeldAndHeapHeldDurablesKeepTheSlotContract) {
  EventQueue q;
  // Node 0's packet end opens the kPacketEnd lane; node 1's is earlier
  // than the lane's tail, so the heap holds it. The contract is the same.
  q.push(5.0, EventKind::kPacketEnd, 0);
  q.push(3.0, EventKind::kPacketEnd, 1);
  q.schedule(4.0, EventKind::kTransition, 2);
  for (const NodeId node : {NodeId{0}, NodeId{1}}) {
    for (const bool durable_push : {true, false}) {
      try {
        if (durable_push)
          q.push(9.0, EventKind::kPacketEnd, node);
        else
          q.schedule(9.0, EventKind::kPacketEnd, node);
        FAIL() << "a live durable slot must refuse push and schedule";
      } catch (const std::logic_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("durable"), std::string::npos) << what;
        EXPECT_NE(what.find("node " + std::to_string(node)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("kPacketEnd"), std::string::npos) << what;
      }
    }
    q.cancel(node, EventKind::kPacketEnd);  // durable: a no-op
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.stats().pushes, 3u);
  EXPECT_EQ(q.stats().cancels, 0u);
  EXPECT_EQ(q.stats().peak_live, 3u);
  EXPECT_EQ(q.pop().node, 1u);  // heap, t = 3
  EXPECT_EQ(q.pop().node, 2u);  // heap, t = 4
  EXPECT_EQ(q.top().node, 0u);  // lane, t = 5
  EXPECT_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
  // Popped slots are free again, in either structure.
  q.push(6.0, EventKind::kPacketEnd, 0);
  q.push(6.0, EventKind::kPacketEnd, 1);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_EQ(q.pop().node, 1u);
}

TEST(EventQueue, LaneTimersTieWithHeapEventsByCallOrder) {
  // Equal times across the lanes and the heap pop in push()/schedule()
  // order, whichever structure holds each event.
  EventQueue q;
  for (NodeId i = 0; i < 300; ++i) {
    q.push(10.0, EventKind::kIntervalEnd, i);    // lane
    q.schedule(10.0, EventKind::kTransition, i); // heap
    q.push(10.0, EventKind::kPacketEnd, i);      // lane
  }
  q.push(9.0, EventKind::kIntervalEnd, 300);     // heap: before the tail
  EXPECT_EQ(q.size(), 901u);
  EXPECT_EQ(q.pop().node, 300u);
  for (std::uint64_t seq = 0; seq < 900; ++seq) {
    const Event e = q.pop();
    EXPECT_EQ(e.seq, seq);
    EXPECT_EQ(e.node, seq / 3);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeIsTheLiveCount) {
  EventQueue q;
  for (NodeId i = 0; i < 10; ++i)
    q.schedule(static_cast<double>(i), EventKind::kTransition, i);
  EXPECT_EQ(q.size(), 10u);
  // Re-scheduling updates the slot in place: nothing superseded is stored.
  for (int round = 0; round < 100; ++round)
    for (NodeId i = 0; i < 10; ++i)
      q.schedule(1e9 + round, EventKind::kTransition, i);
  EXPECT_EQ(q.size(), 10u);
  q.cancel(4, EventKind::kTransition);
  q.cancel(4, EventKind::kTransition);     // already gone: no-op
  q.cancel(4, EventKind::kPacketEnd);      // never scheduled: no-op
  q.cancel(1000, EventKind::kTransition);  // beyond the slot map: no-op
  EXPECT_EQ(q.size(), 9u);
  q.push(0.5, EventKind::kPacketEnd, 4);
  q.cancel(4, EventKind::kPacketEnd);  // durable: unaffected
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(q.stats().cancels, 1000u + 1u);
  std::size_t popped = 0;
  while (!q.empty()) {
    q.pop();
    ++popped;
  }
  EXPECT_EQ(popped, 10u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ReusableAfterClear) {
  EventQueue q;
  q.reserve_for_nodes(4);
  for (NodeId i = 0; i < 4; ++i) {
    q.schedule(10.0 + i, EventKind::kTransition, i);
    q.push(20.0 + i, EventKind::kIntervalEnd, i);
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW(q.top(), std::logic_error);
  // Every slot is free again: the durable pushes that would have collided
  // before clear() succeed, and ordering still breaks ties by call order.
  for (NodeId i = 0; i < 4; ++i) {
    q.push(1.0, EventKind::kIntervalEnd, 3 - i);
    q.schedule(1.0, EventKind::kTransition, i);
  }
  EXPECT_EQ(q.size(), 8u);
  double last_seq = -1.0;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 1.0);
    EXPECT_GT(static_cast<double>(e.seq), last_seq);
    last_seq = static_cast<double>(e.seq);
  }
}

TEST(EventQueue, EmptyPopAndTopThrow) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.top(), std::logic_error);
  q.schedule(1.0, EventKind::kTransition, 0);
  q.cancel(0, EventKind::kTransition);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, TopDoesNotConsume) {
  EventQueue q;
  q.schedule(2.0, EventKind::kTransition, 1);
  q.schedule(1.0, EventKind::kTransition, 0);
  EXPECT_EQ(q.top().node, 0u);
  EXPECT_EQ(q.top().node, 0u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_EQ(q.top().node, 1u);
}

TEST(EventQueue, ManySimultaneousEventsPopInPushOrder) {
  EventQueue q;
  for (NodeId i = 0; i < 500; ++i) q.push(42.0, EventKind::kTransition, i);
  for (NodeId i = 0; i < 500; ++i) EXPECT_EQ(q.pop().node, i);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TopAndPopThrowInsideABatch) {
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 0);
  for (const std::size_t edits : {std::size_t{0}, std::size_t{500}}) {
    {
      const EventQueue::Batch batch(q, edits);
      EXPECT_EQ(batch.deferred(), edits != 0);
      q.schedule(0.5, EventKind::kTransition, 1);
      EXPECT_THROW(q.top(), std::logic_error);
      EXPECT_THROW(q.pop(), std::logic_error);
      EXPECT_THROW(EventQueue::Batch(q, 1), std::logic_error);  // nested
      q.cancel(1, EventKind::kTransition);
      EXPECT_EQ(q.size(), 1u);
    }
    EXPECT_EQ(q.top().node, 0u);  // usable again once the batch closes
  }
  EXPECT_EQ(q.pop().time, 1.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReserveForNodesAppliesSharedPolicy) {
  EventQueue q;
  q.reserve_for_nodes(100);
  EXPECT_GE(q.capacity(), EventQueue::capacity_for_nodes(100));
  EXPECT_EQ(EventQueue::capacity_for_nodes(100), 408u);
}

}  // namespace
