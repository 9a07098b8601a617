// Future-event list for the continuous-time simulators: an indexed d-ary
// heap keyed by (node, kind), plus one sorted FIFO lane per event kind for
// durable timers.
//
// EconCast is a continuous-time Markov chain, so each node holds at most one
// pending timer per event kind, and memorylessness lets a cancelled timer
// simply be re-drawn. The queue therefore has one slot per (node, kind) —
// node-major, kEventKindCount wide — and a position map from slot to where
// its event lives. A slot holds at most one live event:
//
//   * `schedule()` enters a cancellable event; if the slot already holds one
//     it is updated in place (new time, new seq) and re-sifted.
//   * `cancel()` removes the slot's cancellable event in O(log n).
//   * `push()` enters a durable event that no cancellation affects; pushing
//     into a slot that already holds a live event is a logic error.
//
// Most durable timers are monotone per kind: every interval end fires at
// now + τ and every packet end at now + 1. A push whose time is no earlier
// than the tail of its kind's lane is appended there in O(1); every other
// push, and every schedule(), goes to the heap. Seq grows with every call,
// so each lane stays sorted by (time, seq) on any input, and the front of
// the queue is the minimum of the heap top and the lane heads.
//
// The heap and the lanes store only live events, so `top()`/`pop()`/
// `empty()` never see a superseded one. Pop order is the strict total order
// on (time, seq), with seq assigned by every push()/schedule() call, so the
// delivered sequence is a function of the call sequence alone — which
// events took a lane does not change it.
//
// A `Batch` is a scoped run of schedule()/cancel()/push() calls with no
// top()/pop() in between (both throw while a batch is open). A dense
// neighbourhood re-samples every neighbour of a transmitter when the
// carrier toggles, so the simulator wraps that loop in a batch. The caller
// announces how many edits the batch will make; the queue alone decides at
// open whether to defer. A deferring batch keeps the position map exact
// but leaves the heap unordered, and closing it restores heap order with
// one bottom-up (Floyd) heapify. The crossover counts key comparisons in
// the 4-ary heap, with n the heap size at open plus the announced edits
// (the size it grows to if every edit inserts):
//
//   * an immediate edit sifts across up to ⌊log₄ n⌋ levels, scanning 4
//     children per level: 4·⌊log₄ n⌋ comparisons;
//   * Floyd's heapify scans the 4 children of each of the ~n/4 parents
//     (n comparisons), and its sifts move elements down at most n/3
//     levels in total (Σ_h h·n·3/4^(h+1)), each a 4-child scan: 4n/3 more.
//
// So a batch defers when edits · 4·⌊log₄ n⌋ > 7n/3. The simulator
// announces one edit per re-sampled node. A node makes up to two queue
// calls (its guard slot, then its transition slot), and a call on an empty
// slot moves nothing, so a guarded clique's real edits run up to twice the
// announcement: the rule charges one sift per node and defers only where
// the heapify beats even that. Charging two would let a grid node's 4
// neighbours defer on heaps of up to 19 events. In the announced units, a
// grid's at most 4 nodes pass the test only on a heap of at most 2 events,
// and a clique's N − 1 nodes pass it on any heap under 37 events at N = 16
// and under 580 at N = 100. A node holds at most two cancellable timers
// (transition and guard), and most durable ones take a lane, so cliques of
// 16 or more nodes defer at practically every carrier toggle. Deferring
// changes the heap's layout, never its (time, seq) order, seq assignment
// or the QueueStats counters, so the delivered sequence is the same either
// way. The rule is internal: no configuration selects it.
#ifndef ECONCAST_SIM_EVENT_QUEUE_H
#define ECONCAST_SIM_EVENT_QUEUE_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/arena.h"
#include "sim/node_id.h"

namespace econcast::sim {

enum class EventKind : std::uint8_t {
  kTransition,      // a node's next sleep/listen/transmit state change
  kPacketEnd,       // end of the packet currently on the air
  kIntervalEnd,     // end of a node's multiplier-update interval τ_k
  kPingSlot,        // testbed: end of the pinging interval after a packet
  kEnergyDepleted,  // energy guard: storage ran empty / refill reached
  kCustom,          // protocol-specific
};

/// Number of EventKind values; the width of a node's block of slots.
inline constexpr std::size_t kEventKindCount = 6;

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break for identical times
  EventKind kind = EventKind::kCustom;
  bool cancellable = false;  // entered via schedule() rather than push()
  NodeId node = 0;
};

/// Operation counters; `size()` is the live count at any moment.
struct QueueStats {
  std::uint64_t pushes = 0;   // push() + schedule() calls
  std::uint64_t pops = 0;     // events handed to the caller
  std::uint64_t cancels = 0;  // live events removed by cancel() or
                              // superseded by schedule()
  std::size_t peak_live = 0;  // high-water mark of live events
};

class EventQueue {
 public:
  /// With an arena, the heap, the lanes and the position map are
  /// arena-backed (the arena must outlive the queue and any queue
  /// moved-from it).
  explicit EventQueue(Arena* arena = nullptr);

  /// The shared capacity policy for simulators whose live event count is
  /// bounded by a few events per node (pending transition, interval end,
  /// the packet on the air, energy-guard wakeups, a warmup snapshot).
  static constexpr std::size_t capacity_for_nodes(std::size_t n) noexcept {
    return 4 * n + 8;
  }

  /// Pre-sizes the queue for an `n`-node simulation: heap storage per
  /// capacity_for_nodes plus the position map over all n·kEventKindCount
  /// slots (the lanes grow on demand, to at most one entry per node).
  /// proto::Simulation, baselines::simulate_panda_detailed and
  /// testbed::run_testbed call this.
  void reserve_for_nodes(std::size_t n);

  /// Enters a durable event: it stays live until popped. Throws
  /// std::logic_error, naming the node and kind, when the (node, kind) slot
  /// already holds a live event.
  void push(double time, EventKind kind, NodeId node);

  /// Enters a cancellable event, replacing the live event scheduled for the
  /// same (node, kind) if there is one. Throws std::logic_error when the
  /// slot holds a durable event.
  void schedule(double time, EventKind kind, NodeId node);

  /// Removes the live scheduled event for (node, kind), if any. Durable
  /// events are unaffected.
  void cancel(NodeId node, EventKind kind);

  /// A scoped batch of schedule()/cancel()/push() calls. `edits` is the
  /// caller's count of heap edits, charged one sift each by the crossover
  /// rule of the header comment (the simulator passes the number of nodes
  /// it re-samples). top() and pop() throw std::logic_error while it is
  /// open, and so does opening a second batch on the same queue.
  class Batch {
   public:
    Batch(EventQueue& queue, std::size_t edits);
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// True when this batch skips the per-edit sifts and heapifies at close.
    bool deferred() const noexcept { return queue_.deferred_; }

   private:
    EventQueue& queue_;
  };

  bool empty() const noexcept { return size() == 0; }
  /// The earliest event. Throws std::logic_error when empty().
  const Event& top() const;
  /// Removes and returns the earliest event. Throws std::logic_error when
  /// empty().
  Event pop();

  void clear();
  /// Pre-allocates heap storage for `n` simultaneously live events.
  void reserve(std::size_t n) { heap_.reserve(n); }
  std::size_t capacity() const noexcept { return heap_.capacity(); }
  /// Live events, in the heap and the lanes.
  std::size_t size() const noexcept { return heap_.size() + lane_live_; }

  const QueueStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  /// pos_ value of a slot whose durable event sits in its kind's lane.
  static constexpr std::uint32_t kInLane = kAbsent - 1;
  /// Source index of the heap; lanes are 0 .. kEventKindCount-1.
  static constexpr std::size_t kHeapSource = kEventKindCount;

  /// A ring of durable events of one kind, sorted by (time, seq). Its
  /// capacity is zero or a power of two.
  struct Lane {
    ArenaVector<Event> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    const Event& front() const noexcept { return ring[head]; }
    const Event& back() const noexcept {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
  };

  /// The slot index of (node, kind), growing the position map to cover it.
  std::size_t slot(NodeId node, EventKind kind);
  /// Counts a push() or schedule() that added a live event.
  void count_push() noexcept;
  void insert(const Event& event, std::size_t slot);
  void lane_append(Lane& lane, const Event& event);
  /// Where the earliest live event is: a lane index or kHeapSource.
  /// Requires !empty().
  std::size_t front_source() const noexcept;
  /// Removes the event at heap index `i`.
  void erase_at(std::size_t i);
  /// Restores heap order around index `i` after its key changed; a no-op
  /// inside a deferring batch.
  void fix(std::size_t i);
  /// Restores heap order over the whole heap, bottom-up.
  void heapify();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(std::size_t i, const Event& event);

  ArenaVector<Event> heap_;
  ArenaVector<std::uint32_t> pos_;  // slot -> heap index, kInLane, kAbsent
  std::array<Lane, kEventKindCount> lanes_;
  std::size_t lane_live_ = 0;  // events held by the lanes
  std::uint64_t next_seq_ = 0;
  QueueStats stats_;
  bool batch_open_ = false;
  bool deferred_ = false;  // the open batch skips sifts until it closes
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_EVENT_QUEUE_H
