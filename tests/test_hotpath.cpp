// Tests for the simulation hot path: the scenario arena and its allocator,
// the incremental listener counts (randomized differential test against the
// reference scan), and the estimator validation sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "econcast/estimator.h"
#include "model/network.h"
#include "sim/arena.h"
#include "sim/channel.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::sim;

// ----------------------------------------------------------------- arena --

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  const void* a = arena.allocate(3, 1);
  const void* b = arena.allocate(8, 8);
  const void* c = arena.allocate(100, 64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

TEST(Arena, GrowsAcrossChunksAndCountsStats) {
  Arena arena;
  // Larger than the first chunk: forces at least one growth.
  for (int i = 0; i < 8; ++i) (void)arena.allocate(1 << 15, 8);
  const Arena::Stats stats = arena.stats();
  EXPECT_GE(stats.bytes_allocated, 8u * (1u << 15));
  EXPECT_GE(stats.bytes_reserved, stats.bytes_allocated);
  EXPECT_GE(stats.chunks, 2u);
}

TEST(Arena, VectorsUseArenaMemoryAndHeapFallback) {
  Arena arena;
  ArenaVector<int> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], 999);
  EXPECT_GT(arena.stats().bytes_allocated, 0u);

  // Default-constructed allocator: plain heap, usable without any arena.
  ArenaVector<int> heap;
  for (int i = 0; i < 1000; ++i) heap.push_back(i);
  EXPECT_EQ(heap, v);

  // Allocators compare by arena identity (is_always_equal is false).
  EXPECT_FALSE(ArenaAllocator<int>(&arena) == ArenaAllocator<int>());
  EXPECT_TRUE(ArenaAllocator<int>(&arena) == ArenaAllocator<int>(&arena));
}

// ----------------------------------------- differential channel coverage --

// Drives a random listen/burst/packet schedule through a channel and checks
// the incremental listener counts against the reference scan after every
// mutation.
TEST(ChannelDifferential, RandomScheduleMatchesReferenceScan) {
  util::Rng topo_rng(7);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(round) * 5;
    const auto topo = model::Topology::random_gnp(n, 0.3, topo_rng);

    Arena arena;
    Channel ch(topo, &arena);
    util::Rng rng(1000 + static_cast<std::uint64_t>(round));
    NodeId tx_active = kNoNode;
    bool packet_open = false;

    auto check_all = [&] {
      for (NodeId i = 0; i < n; ++i) {
        ASSERT_EQ(ch.listening_neighbors(i), ch.listening_neighbors_scan(i))
            << "node " << i;
      }
    };

    for (int step = 0; step < 2000; ++step) {
      const double u = rng.uniform();
      if (u < 0.55) {
        // Toggle a random node's listen state, respecting the channel's
        // preconditions (idle medium, not the transmitter).
        const auto i = static_cast<NodeId>(rng.uniform() *
                                           static_cast<double>(n));
        if (i == tx_active || ch.busy_at(i) || ch.is_transmitting(i))
          continue;
        ch.set_listening(i, !ch.is_listening(i));
      } else if (u < 0.75 && tx_active == kNoNode) {
        const auto i = static_cast<NodeId>(rng.uniform() *
                                           static_cast<double>(n));
        if (ch.busy_at(i) || ch.is_listening(i)) continue;
        ch.begin_burst(i);
        tx_active = i;
      } else if (u < 0.85 && tx_active != kNoNode && !packet_open) {
        ch.begin_packet(tx_active);
        packet_open = true;
      } else if (u < 0.95 && packet_open) {
        (void)ch.end_packet(tx_active);
        packet_open = false;
      } else if (tx_active != kNoNode && !packet_open) {
        ch.end_burst(tx_active);
        tx_active = kNoNode;
      }
      check_all();
      if (rng.uniform() < 0.1) (void)ch.drain_toggled();
    }
  }
}

TEST(ChannelDifferential, ScratchBuffersAreReusedNotReallocated) {
  const auto topo = model::Topology::clique(8);
  Arena arena;
  Channel ch(topo, &arena);
  for (NodeId i = 1; i < 8; ++i) ch.set_listening(i, true);
  (void)ch.drain_toggled();
  const Arena::Stats before = arena.stats();
  // Steady state: bursts, packets and drains must not grow the arena.
  for (int k = 0; k < 50; ++k) {
    ch.begin_burst(0);
    ch.begin_packet(0);
    const Channel::PacketOutcome& outcome = ch.end_packet(0);
    EXPECT_EQ(outcome.clean_receivers.size(), 7u);
    ch.end_burst(0);
    for (NodeId i = 1; i < 8; ++i) ch.set_listening(i, true);
    (void)ch.drain_toggled();
  }
  EXPECT_EQ(arena.stats().bytes_allocated, before.bytes_allocated);
}

// -------------------------------------------------------------- estimator --

TEST(Estimator, ValidatesDetectProbForEveryKind) {
  for (const auto kind :
       {proto::EstimatorKind::kPerfect, proto::EstimatorKind::kBinomialThinning,
        proto::EstimatorKind::kExistenceOnly}) {
    proto::EstimatorConfig cfg;
    cfg.kind = kind;
    cfg.detect_prob = -0.1;
    EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
    cfg.detect_prob = 1.1;
    EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
    cfg.detect_prob = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
    // The boundary values are legal for every kind.
    cfg.detect_prob = 0.0;
    EXPECT_NO_THROW(proto::ListenerEstimator{cfg});
    cfg.detect_prob = 1.0;
    EXPECT_NO_THROW(proto::ListenerEstimator{cfg});
  }
}

TEST(Estimator, BoundaryDetectProbsAreDeterministic) {
  util::Rng rng(3);
  proto::EstimatorConfig cfg;
  cfg.kind = proto::EstimatorKind::kBinomialThinning;
  cfg.detect_prob = 0.0;
  const proto::ListenerEstimator none(cfg);
  cfg.detect_prob = 1.0;
  const proto::ListenerEstimator all(cfg);
  for (int c = 0; c <= 8; ++c) {
    EXPECT_EQ(none.estimate(c, rng), 0);
    EXPECT_EQ(all.estimate(c, rng), c);
  }
}

TEST(Estimator, ZeroListenersEstimateZeroForEveryKind) {
  util::Rng rng(4);
  for (const auto kind :
       {proto::EstimatorKind::kPerfect, proto::EstimatorKind::kBinomialThinning,
        proto::EstimatorKind::kExistenceOnly}) {
    proto::EstimatorConfig cfg;
    cfg.kind = kind;
    cfg.detect_prob = 0.5;
    const proto::ListenerEstimator est(cfg);
    EXPECT_EQ(est.estimate(0, rng), 0);
  }
}

TEST(Estimator, RejectsCorruptedKind) {
  proto::EstimatorConfig cfg;
  cfg.kind = static_cast<proto::EstimatorKind>(250);
  EXPECT_THROW(proto::ListenerEstimator{cfg}, std::invalid_argument);
}

}  // namespace
