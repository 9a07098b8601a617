// Shared-medium bookkeeping on an arbitrary topology: per-node carrier sense
// (A_i(t) of §V-E), reception locking, and the non-clique corruption rule of
// §VII-E (a reception overlapped by a second in-range transmission is voided).
//
// The channel tracks who transmits and who listens; the protocol layer asks
// for packet outcomes and drains busy-toggle notifications to re-sample
// exponential transitions.
//
// The channel maintains a per-node count of listening neighbors, updated in
// O(degree) on each listener-set change, so `listening_neighbors()` answers
// in O(1). The O(degree) scan it replaces stays available as
// `listening_neighbors_scan()`, the reference the differential tests compare
// the incremental count against.
//
// `begin_packet` scans the transmitter's neighbours once and records the
// receivers it locks in a per-transmitter intrusive list: one head per
// transmitter and one `next` link per receiver, O(N) in all, since a
// listener is locked by at most one transmitter at a time. `end_packet`
// walks only that list, re-checking each lock exactly as a full neighbour
// scan would (a receiver that stopped listening mid-packet dropped its
// lock), so ending a packet costs what its receivers cost, not the
// transmitter's degree. Receivers come out in neighbour order, the order
// that drives the protocol's later RNG draws, so the results equal those
// of the full scan. Each transmitter has at most one packet open:
// `begin_packet` with one open, `end_packet` without one and `end_burst`
// with one open throw.
//
// All per-node storage can be placed in a caller-owned Arena; the channel
// then allocates nothing after construction (the toggle drain and the packet
// outcome refill reusable buffers).
#ifndef ECONCAST_SIM_CHANNEL_H
#define ECONCAST_SIM_CHANNEL_H

#include <cstdint>

#include "model/network.h"
#include "sim/arena.h"
#include "sim/node_id.h"

namespace econcast::sim {

class Channel {
 public:
  explicit Channel(const model::Topology& topology, Arena* arena = nullptr);

  // --- listen-state notifications (from the protocol layer) -------------
  /// Must only be called while the node senses an idle medium (the protocol
  /// gates wake-ups on A_i(t)); entering listen mid-packet is a logic error
  /// for neighbors of an active transmitter.
  void set_listening(NodeId node, bool listening);

  // --- transmissions -----------------------------------------------------
  /// Starts a burst: raises carrier for all neighbors. The transmitter must
  /// currently sense an idle medium and not be listening.
  void begin_burst(NodeId tx);

  /// Starts one packet inside an ongoing burst: locks every neighbor that is
  /// listening, hears only this transmitter, and is not already mid-packet.
  /// Throws std::logic_error when `tx` already has a packet open.
  void begin_packet(NodeId tx);

  struct PacketOutcome {
    ArenaVector<NodeId> clean_receivers;  // got the whole packet, no overlap
    std::uint32_t corrupted = 0;          // receptions voided by overlap

    PacketOutcome() = default;
    explicit PacketOutcome(Arena* arena)
        : clean_receivers(ArenaAllocator<NodeId>(arena)) {}
  };

  /// Ends the current packet of `tx`, returning who received it cleanly,
  /// in neighbour order. The returned outcome is a reusable buffer: it
  /// stays valid until the next end_packet call (copy it to keep it
  /// longer). Throws std::logic_error when `tx` has no packet open.
  const PacketOutcome& end_packet(NodeId tx);

  /// Ends the burst: drops carrier for all neighbors. Throws
  /// std::logic_error while `tx` still has a packet open.
  void end_burst(NodeId tx);

  // --- queries -------------------------------------------------------------
  /// True when node i senses the medium busy (>= 1 transmitting neighbor),
  /// i.e. A_i(t) = 0.
  bool busy_at(NodeId node) const;
  bool is_transmitting(NodeId node) const;
  /// The transmitter whose packet `node` is decoding, kNoNode when none.
  NodeId locked_to(NodeId node) const { return lock_tx_[node]; }
  /// c(t) as seen by `node`: its listening neighbors (perfect estimate).
  /// O(1), from the incremental count.
  int listening_neighbors(NodeId node) const {
    return static_cast<int>(listen_count_[node]);
  }
  /// The reference computation, an O(degree) scan. The differential tests
  /// assert listening_neighbors() == this at every step.
  int listening_neighbors_scan(NodeId node) const;
  int transmitting_count() const noexcept { return active_tx_; }

  /// Nodes whose carrier-sense state toggled since the last drain (each at
  /// most once). The protocol re-samples these nodes' transitions. The
  /// returned buffer is reused: it stays valid until the next drain.
  const ArenaVector<NodeId>& drain_toggled();

 private:
  static constexpr NodeId kEndOfList = kNoNode - 1;

  void mark_toggled(NodeId node);
  /// Flips the listen bit and maintains the incremental neighbor counts.
  /// Does NOT touch the reception lock — begin_burst's implicit listen-drop
  /// keeps the (necessarily empty) lock state untouched, exactly like the
  /// reference semantics.
  void apply_listen_change(NodeId node, bool listening);

  const model::Topology& topo_;
  ArenaVector<std::uint8_t> listening_;
  ArenaVector<std::uint8_t> transmitting_;
  ArenaVector<std::uint32_t> busy_count_;    // transmitting neighbors
  ArenaVector<std::uint32_t> listen_count_;  // listening neighbors
  ArenaVector<NodeId> lock_tx_;  // which tx this listener decodes (kNoNode none)
  ArenaVector<std::uint8_t> corrupt_;  // current reception overlapped
  // The receivers a transmitter's open packet locked, as a list threaded
  // through rx_next_: rx_head_[tx] is kNoNode while no packet is open, and
  // kEndOfList ends a list (an open packet that locked nobody is empty).
  ArenaVector<NodeId> rx_head_;
  ArenaVector<NodeId> rx_next_;
  ArenaVector<std::uint8_t> toggled_flag_;
  ArenaVector<NodeId> toggled_;
  ArenaVector<NodeId> drained_;  // scratch handed out by drain_toggled()
  PacketOutcome outcome_;        // scratch handed out by end_packet()
  int active_tx_ = 0;
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_CHANNEL_H
