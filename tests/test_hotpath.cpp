// Tests for the simulation hot path: the scenario arena and its allocator,
// the incremental listener counts and the packet bookkeeping (randomized
// differential tests against full-neighbour reference scans), and the
// estimator validation sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

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

/// The channel's packet rules spelled out with full neighbour scans: the
/// reference the receiver lists are checked against. It mirrors Channel
/// call for call.
class ReferenceChannel {
 public:
  explicit ReferenceChannel(const model::Topology& topo)
      : topo_(topo),
        listening_(topo.size(), 0),
        busy_(topo.size(), 0),
        lock_(topo.size(), kNoNode),
        corrupt_(topo.size(), 0) {}

  void set_listening(NodeId node, bool listening) {
    listening_[node] = listening ? 1 : 0;
    if (!listening) {
      lock_[node] = kNoNode;
      corrupt_[node] = 0;
    }
  }

  void begin_burst(NodeId tx) {
    listening_[tx] = 0;
    for (const std::size_t j : topo_.neighbors(tx)) {
      ++busy_[j];
      if (busy_[j] >= 2 && lock_[j] != kNoNode) corrupt_[j] = 1;
    }
  }

  void begin_packet(NodeId tx) {
    for (const std::size_t j : topo_.neighbors(tx)) {
      if (listening_[j] && busy_[j] == 1 && lock_[j] == kNoNode) {
        lock_[j] = tx;
        corrupt_[j] = 0;
      }
    }
  }

  /// Every neighbour locked onto `tx`, in neighbour order, with the count
  /// of overlapped receptions.
  std::pair<std::vector<NodeId>, std::uint32_t> end_packet(NodeId tx) {
    std::pair<std::vector<NodeId>, std::uint32_t> outcome{{}, 0};
    for (const std::size_t j : topo_.neighbors(tx)) {
      if (lock_[j] != tx) continue;
      if (corrupt_[j])
        ++outcome.second;
      else
        outcome.first.push_back(static_cast<NodeId>(j));
      lock_[j] = kNoNode;
      corrupt_[j] = 0;
    }
    return outcome;
  }

  void end_burst(NodeId tx) {
    for (const std::size_t j : topo_.neighbors(tx)) --busy_[j];
  }

  NodeId locked_to(NodeId node) const { return lock_[node]; }

 private:
  const model::Topology& topo_;
  std::vector<std::uint8_t> listening_;
  std::vector<std::uint32_t> busy_;
  std::vector<NodeId> lock_;
  std::vector<std::uint8_t> corrupt_;
};

/// What a differential run exercised.
struct ChannelCoverage {
  std::uint32_t clean = 0;       // receptions delivered
  std::uint32_t corrupted = 0;   // receptions voided by overlap
  std::size_t max_bursting = 0;  // most transmitters on the air at once
};

/// Drives a random listen/burst/packet schedule through a channel and the
/// reference: the incremental listener counts must equal the scan after
/// every mutation, and the lock set, the clean receivers (in order) and the
/// corrupted count must equal the reference's full-neighbour scan. Several
/// transmitters run at once wherever the graph allows it (they are pairwise
/// non-adjacent, since a burst needs an idle medium), so receptions overlap
/// at hidden terminals and get corrupted. Listeners also drop out mid-packet
/// (the energy guard's brown-out), voiding their lock.
///
/// `listen_bias` is the chance a listen toggle turns a node on.
void run_channel_differential(const model::Topology& topo, std::uint64_t seed,
                              double listen_bias, ChannelCoverage& coverage) {
  const std::size_t n = topo.size();
  Arena arena;
  Channel ch(topo, &arena);
  ReferenceChannel ref(topo);
  util::Rng rng(seed);
  std::vector<NodeId> bursting;     // transmitters between packets
  std::vector<NodeId> packet_open;  // transmitters with a packet on the air

  const auto random_node = [&] {
    return static_cast<NodeId>(rng.uniform_int(n));
  };
  const auto pick = [&](std::vector<NodeId>& from) {
    const std::size_t k = rng.uniform_int(from.size());
    const NodeId node = from[k];
    from[k] = from.back();
    from.pop_back();
    return node;
  };
  const auto check_all = [&] {
    for (NodeId i = 0; i < n; ++i) {
      ASSERT_EQ(ch.listening_neighbors(i), ch.listening_neighbors_scan(i))
          << "node " << i;
      ASSERT_EQ(ch.locked_to(i), ref.locked_to(i)) << "node " << i;
    }
  };

  for (int step = 0; step < 4000; ++step) {
    const double u = rng.uniform();
    if (u < 0.45) {
      // A listen toggle. Joining needs an idle medium (the protocol gates
      // wake-ups on carrier sense); leaving is allowed mid-packet.
      const NodeId i = random_node();
      if (ch.is_transmitting(i)) continue;
      const bool on = rng.uniform() < listen_bias;
      if (on && ch.busy_at(i)) continue;
      ch.set_listening(i, on);
      ref.set_listening(i, on);
    } else if (u < 0.6) {
      const NodeId i = random_node();
      if (ch.busy_at(i) || ch.is_transmitting(i)) continue;
      ch.begin_burst(i);  // a listening node drops listen implicitly
      ref.begin_burst(i);
      bursting.push_back(i);
      coverage.max_bursting = std::max(
          coverage.max_bursting, bursting.size() + packet_open.size());
    } else if (u < 0.75) {
      if (bursting.empty()) continue;
      const NodeId tx = pick(bursting);
      ch.begin_packet(tx);
      ref.begin_packet(tx);
      packet_open.push_back(tx);
    } else if (u < 0.9) {
      if (packet_open.empty()) continue;
      const NodeId tx = pick(packet_open);
      const Channel::PacketOutcome& got = ch.end_packet(tx);
      const auto want = ref.end_packet(tx);
      ASSERT_EQ(std::vector<NodeId>(got.clean_receivers.begin(),
                                    got.clean_receivers.end()),
                want.first)
          << "tx " << tx << " at step " << step;
      ASSERT_EQ(got.corrupted, want.second) << "tx " << tx;
      coverage.clean += static_cast<std::uint32_t>(want.first.size());
      coverage.corrupted += got.corrupted;
      bursting.push_back(tx);
    } else {
      if (bursting.empty()) continue;
      const NodeId tx = pick(bursting);
      ch.end_burst(tx);
      ref.end_burst(tx);
    }
    check_all();
    if (::testing::Test::HasFatalFailure()) return;
    if (rng.uniform() < 0.1) (void)ch.drain_toggled();
  }
}

TEST(ChannelDifferential, RandomScheduleMatchesReferenceScan) {
  util::Rng topo_rng(7);
  ChannelCoverage coverage;
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(round) * 5;
    const auto topo = model::Topology::random_gnp(n, 0.3, topo_rng);
    run_channel_differential(topo, 1000 + static_cast<std::uint64_t>(round),
                             0.5, coverage);
  }
  EXPECT_GT(coverage.clean, 0u);
  EXPECT_GT(coverage.corrupted, 0u);
}

TEST(ChannelDifferential, HiddenTerminalsCorruptLikeTheReference) {
  // Sparse graphs: many pairwise non-adjacent transmitters at once, so a
  // listener often hears two of them.
  util::Rng topo_rng(11);
  ChannelCoverage coverage;
  for (int round = 0; round < 4; ++round) {
    const auto topo = model::Topology::random_gnp(24, 0.15, topo_rng);
    run_channel_differential(topo, 2000 + static_cast<std::uint64_t>(round),
                             0.6, coverage);
  }
  EXPECT_GE(coverage.max_bursting, 3u);
  EXPECT_GT(coverage.corrupted, 0u);
}

TEST(ChannelDifferential, CliqueMatchesReferenceScan) {
  // One medium: a packet locks every idle listener, sparse or packed.
  ChannelCoverage coverage;
  run_channel_differential(model::Topology::clique(9), 31, 0.5, coverage);
  run_channel_differential(model::Topology::clique(9), 32, 0.97, coverage);
  EXPECT_GT(coverage.clean, 0u);
  EXPECT_EQ(coverage.max_bursting, 1u);  // a clique has one medium
}

TEST(ChannelDifferential, PacketContractIsEnforced) {
  const auto topo = model::Topology::line(3);
  Channel ch(topo);
  ch.begin_burst(0);
  EXPECT_THROW((void)ch.end_packet(0), std::logic_error);  // none open
  ch.begin_packet(0);
  EXPECT_THROW(ch.begin_packet(0), std::logic_error);  // already open
  EXPECT_THROW(ch.end_burst(0), std::logic_error);     // packet on the air
  EXPECT_TRUE(ch.end_packet(0).clean_receivers.empty());
  ch.end_burst(0);
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
