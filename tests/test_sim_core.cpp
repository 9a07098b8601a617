// Tests for the simulator substrate: event queue, energy ledger, channel
// bookkeeping (CSMA + non-clique corruption), and the metrics collector.
#include <gtest/gtest.h>

#include "model/network.h"
#include "sim/channel.h"
#include "sim/energy.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace {

using namespace econcast;
using namespace econcast::sim;

// ------------------------------------------------------------ event queue --

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(3.0, EventKind::kTransition, 0);
  q.push(1.0, EventKind::kPacketEnd, 1);
  q.push(2.0, EventKind::kIntervalEnd, 2);
  EXPECT_EQ(q.pop().node, 1u);
  EXPECT_EQ(q.pop().node, 2u);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  q.push(1.0, EventKind::kTransition, 10);
  q.push(1.0, EventKind::kTransition, 11);
  q.push(1.0, EventKind::kTransition, 12);
  EXPECT_EQ(q.pop().node, 10u);
  EXPECT_EQ(q.pop().node, 11u);
  EXPECT_EQ(q.pop().node, 12u);
}

TEST(EventQueue, ScheduleReplacesPendingSlot) {
  // schedule() owns cancellation: at most one live event per (node, kind).
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 4);
  q.schedule(2.0, EventKind::kTransition, 4);
  const Event e = q.pop();
  EXPECT_DOUBLE_EQ(e.time, 2.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().cancels, 1u);
}

TEST(EventQueue, CancelInvalidatesOnlyItsSlot) {
  EventQueue q;
  q.schedule(1.0, EventKind::kTransition, 4);
  q.schedule(2.0, EventKind::kEnergyDepleted, 4);
  q.schedule(3.0, EventKind::kTransition, 5);
  q.cancel(4, EventKind::kTransition);
  EXPECT_EQ(q.pop().kind, EventKind::kEnergyDepleted);
  EXPECT_EQ(q.pop().node, 5u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DurablePushIsNotCancellable) {
  EventQueue q;
  q.push(1.0, EventKind::kPacketEnd, 4);
  q.cancel(4, EventKind::kPacketEnd);
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.pop().kind, EventKind::kPacketEnd);
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.top(), std::logic_error);
}

TEST(EventQueue, ClearEmpties) {
  EventQueue q;
  q.push(1.0, EventKind::kCustom, 0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// ----------------------------------------------------------- energy ledger --

TEST(EnergyLedger, HarvestOnlyAccumulates) {
  EnergyLedger e;
  e.add(2.0, 1.0);
  EXPECT_DOUBLE_EQ(e.level(0, 3.0), 7.0);  // 1 + 2*3
  EXPECT_DOUBLE_EQ(e.consumed(0, 3.0), 0.0);
}

TEST(EnergyLedger, DrawReducesLevel) {
  EnergyLedger e;
  e.add(1.0, 0.0);
  e.set_draw(0, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(e.level(0, 2.0), -4.0);  // (1-3)*2, no floor
  EXPECT_DOUBLE_EQ(e.consumed(0, 2.0), 6.0);
}

TEST(EnergyLedger, PiecewiseAccounting) {
  EnergyLedger e;
  e.add(1.0, 0.0);
  e.set_draw(0, 2.0, 0.0);   // net -1 for 5 units
  e.set_draw(0, 0.0, 5.0);   // net +1 for 5 units
  EXPECT_DOUBLE_EQ(e.level(0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(e.consumed(0, 10.0), 10.0);
}

TEST(EnergyLedger, QueryDoesNotMutate) {
  EnergyLedger e;
  e.add(1.0, 0.0);
  e.set_draw(0, 2.0, 0.0);
  EXPECT_DOUBLE_EQ(e.level(0, 1.0), -1.0);
  EXPECT_DOUBLE_EQ(e.level(0, 1.0), -1.0);  // idempotent
  EXPECT_DOUBLE_EQ(e.consumed(0, 1.0), 2.0);
}

TEST(EnergyLedger, SlotsDoNotInteract) {
  EnergyLedger e;
  EXPECT_EQ(e.add(1.0, 0.0), 0u);
  EXPECT_EQ(e.add(3.0, 2.0), 1u);
  EXPECT_EQ(e.size(), 2u);
  e.set_draw(0, 5.0, 0.0);  // slot 0: net -4 from t=0
  e.set_draw(1, 1.0, 4.0);  // slot 1: net +3 to t=4, then net +2
  e.set_draw(0, 0.0, 2.0);  // slot 0: net +1 from t=2
  EXPECT_DOUBLE_EQ(e.level(0, 6.0), -4.0);  // -4*2 + 1*4
  EXPECT_DOUBLE_EQ(e.consumed(0, 6.0), 10.0);
  EXPECT_DOUBLE_EQ(e.level(1, 6.0), 18.0);  // 2 + 3*4 + 2*2
  EXPECT_DOUBLE_EQ(e.consumed(1, 6.0), 2.0);
}

// ---------------------------------------------------------------- channel --

TEST(Channel, CliqueCarrierSense) {
  const auto topo = model::Topology::clique(4);
  Channel ch(topo);
  ch.set_listening(1, true);
  ch.set_listening(2, true);
  ch.begin_burst(0);
  EXPECT_TRUE(ch.busy_at(1));
  EXPECT_TRUE(ch.busy_at(2));
  EXPECT_TRUE(ch.busy_at(3));
  EXPECT_FALSE(ch.busy_at(0));  // the transmitter's own neighbors transmit: none
  EXPECT_TRUE(ch.is_transmitting(0));
  EXPECT_EQ(ch.transmitting_count(), 1);
}

TEST(Channel, PacketDeliveredToLockedListeners) {
  const auto topo = model::Topology::clique(4);
  Channel ch(topo);
  ch.set_listening(1, true);
  ch.set_listening(3, true);
  ch.begin_burst(0);
  ch.begin_packet(0);
  const auto outcome = ch.end_packet(0);
  EXPECT_EQ(outcome.clean_receivers.size(), 2u);
  EXPECT_EQ(outcome.corrupted, 0u);
  ch.end_burst(0);
  EXPECT_FALSE(ch.busy_at(1));
}

TEST(Channel, ListenersJoiningMidBurstLockNextPacket) {
  // In a non-clique, a node outside the transmitter's range can enter listen
  // mid-burst and decode the *next* full packet.
  const auto topo = model::Topology::line(3);  // 0-1-2
  Channel ch(topo);
  ch.begin_burst(0);
  ch.begin_packet(0);
  ch.set_listening(2, true);  // not a neighbor of 0; allowed mid-burst
  EXPECT_EQ(ch.end_packet(0).clean_receivers.size(), 0u);
  // 2 is not adjacent to 0, so even the next packet is not received by it.
  ch.begin_packet(0);
  EXPECT_EQ(ch.end_packet(0).clean_receivers.size(), 0u);
  ch.end_burst(0);
}

TEST(Channel, HiddenTerminalCorruption) {
  // 0-1-2 line: 0 and 2 are hidden from each other; both can transmit, and
  // 1's reception is voided (§VII-E).
  const auto topo = model::Topology::line(3);
  Channel ch(topo);
  ch.set_listening(1, true);
  ch.begin_burst(0);
  ch.begin_packet(0);  // 1 locks onto 0
  EXPECT_FALSE(ch.busy_at(2));  // 2 cannot hear 0
  ch.begin_burst(2);   // overlapping transmission corrupts 1's reception
  ch.begin_packet(2);
  const auto from0 = ch.end_packet(0);
  EXPECT_EQ(from0.clean_receivers.size(), 0u);
  EXPECT_EQ(from0.corrupted, 1u);
  ch.end_burst(0);
  // 1 never locked onto 2's packet (it was mid-reception when 2 started).
  const auto from2 = ch.end_packet(2);
  EXPECT_EQ(from2.clean_receivers.size(), 0u);
  ch.end_burst(2);
}

TEST(Channel, MidPacketJoinDoesNotLockButNextPacketDoes) {
  const auto topo = model::Topology::line(3);
  Channel ch(topo);
  ch.set_listening(1, true);
  ch.begin_burst(2);  // 1 is a neighbor of 2
  ch.begin_packet(2);
  const auto first = ch.end_packet(2);
  EXPECT_EQ(first.clean_receivers.size(), 1u);
  // Next packet in the same burst: 1 still listening, locks again.
  ch.begin_packet(2);
  EXPECT_EQ(ch.end_packet(2).clean_receivers.size(), 1u);
  ch.end_burst(2);
}

TEST(Channel, ToggleNotificationsOncePerNode) {
  const auto topo = model::Topology::clique(3);
  Channel ch(topo);
  ch.begin_burst(0);
  const auto toggled = ch.drain_toggled();
  EXPECT_EQ(toggled.size(), 2u);  // nodes 1, 2 became busy
  EXPECT_TRUE(ch.drain_toggled().empty());  // drained
  ch.end_burst(0);
  EXPECT_EQ(ch.drain_toggled().size(), 2u);
}

TEST(Channel, CarrierSenseViolationThrows) {
  const auto topo = model::Topology::clique(3);
  Channel ch(topo);
  ch.begin_burst(0);
  EXPECT_THROW(ch.begin_burst(1), std::logic_error);  // medium busy at 1
  EXPECT_THROW(ch.begin_burst(0), std::logic_error);  // already transmitting
}

TEST(Channel, SpatialReuseAllowedForNonNeighbors) {
  const auto topo = model::Topology::line(4);  // 0-1-2-3
  Channel ch(topo);
  ch.begin_burst(0);
  EXPECT_NO_THROW(ch.begin_burst(3));  // 3 does not hear 0
  EXPECT_EQ(ch.transmitting_count(), 2);
  ch.end_burst(0);
  ch.end_burst(3);
}

TEST(Channel, ListeningNeighborCount) {
  const auto topo = model::Topology::grid(2, 2);
  Channel ch(topo);
  ch.set_listening(1, true);
  ch.set_listening(2, true);
  EXPECT_EQ(ch.listening_neighbors(0), 2);  // 1 and 2 adjacent to 0
  EXPECT_EQ(ch.listening_neighbors(3), 2);
  ch.set_listening(1, false);
  EXPECT_EQ(ch.listening_neighbors(0), 1);
}

TEST(Channel, TransmitterCannotListen) {
  const auto topo = model::Topology::clique(3);
  Channel ch(topo);
  ch.begin_burst(0);
  EXPECT_THROW(ch.set_listening(0, true), std::logic_error);
  ch.end_burst(0);
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, ThroughputIntegration) {
  MetricsCollector m(4);
  m.start_measurement(0.0);
  m.record_packet(10.0, 1.0, 3, 0);  // 3 receivers
  m.record_packet(11.0, 1.0, 0, 0);  // nobody listening
  m.record_packet(12.0, 1.0, 1, 0);
  EXPECT_DOUBLE_EQ(m.groupput(100.0), 4.0 / 100.0);
  EXPECT_DOUBLE_EQ(m.anyput(100.0), 2.0 / 100.0);
  EXPECT_EQ(m.packets_sent(), 3u);
  EXPECT_EQ(m.packets_received(), 4u);
}

TEST(Metrics, WarmupDiscardsEarlyPackets) {
  MetricsCollector m(2);
  m.start_measurement(50.0);
  m.record_packet(10.0, 1.0, 1, 0);  // before warmup: ignored
  m.record_packet(60.0, 1.0, 1, 0);
  EXPECT_DOUBLE_EQ(m.groupput(150.0), 1.0 / 100.0);
  EXPECT_EQ(m.packets_sent(), 1u);
}

TEST(Metrics, BurstStatistics) {
  MetricsCollector m(2);
  m.record_burst(1.0, 5, true);
  m.record_burst(2.0, 15, true);
  m.record_burst(3.0, 7, false);  // nobody received: not counted
  EXPECT_EQ(m.burst_count(), 2u);
  EXPECT_DOUBLE_EQ(m.burst_lengths().mean(), 10.0);
}

TEST(Metrics, LatencyRequiresSleepBetweenBursts) {
  MetricsCollector m(2);
  // First burst for node 0: no previous burst -> no sample.
  m.receiver_burst_started(0, 10.0);
  m.receiver_burst_ended(0, 12.0);
  // Second burst without sleeping in between -> no sample.
  m.receiver_burst_started(0, 20.0);
  m.receiver_burst_ended(0, 21.0);
  EXPECT_EQ(m.latencies().count(), 0u);
  // Third burst after a sleep -> gap from end(21) to start(40) = 19.
  m.node_slept(0);
  m.receiver_burst_started(0, 40.0);
  m.receiver_burst_ended(0, 45.0);
  ASSERT_EQ(m.latencies().count(), 1u);
  EXPECT_DOUBLE_EQ(m.latencies().samples()[0], 19.0);
}

TEST(Metrics, LatencyUsesFirstPacketOfBurst) {
  MetricsCollector m(1);
  m.receiver_burst_started(0, 5.0);
  m.receiver_burst_started(0, 6.0);  // later packets don't move the start
  m.receiver_burst_ended(0, 7.0);
  m.node_slept(0);
  m.receiver_burst_started(0, 17.0);
  m.receiver_burst_ended(0, 18.0);
  ASSERT_EQ(m.latencies().count(), 1u);
  EXPECT_DOUBLE_EQ(m.latencies().samples()[0], 10.0);
}

TEST(Metrics, PerNodeLatencyIndependence) {
  MetricsCollector m(2);
  m.receiver_burst_started(0, 1.0);
  m.receiver_burst_ended(0, 2.0);
  m.node_slept(0);
  m.receiver_burst_started(1, 3.0);
  m.receiver_burst_ended(1, 4.0);
  m.node_slept(1);
  m.receiver_burst_started(0, 10.0);
  m.receiver_burst_ended(0, 11.0);
  ASSERT_EQ(m.latencies().count(), 1u);  // only node 0 completed a cycle
  EXPECT_DOUBLE_EQ(m.latencies().samples()[0], 8.0);
}

}  // namespace
