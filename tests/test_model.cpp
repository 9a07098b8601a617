// Tests for node parameters, the heterogeneity sampler (§VII-B process),
// topologies, and the collision-free state space W.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "model/network.h"
#include "model/node_params.h"
#include "model/state_space.h"
#include "util/random.h"

namespace {

using namespace econcast::model;
using econcast::util::Rng;

// ----------------------------------------------------------- node params --

TEST(NodeParams, ValidationRejectsBadValues) {
  EXPECT_THROW((NodeParams{0.0, 1.0, 1.0}).validate(), std::invalid_argument);
  EXPECT_THROW((NodeParams{1.0, -1.0, 1.0}).validate(), std::invalid_argument);
  EXPECT_THROW((NodeParams{1.0, 1.0, 0.0}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((NodeParams{1.0, 2.0, 3.0}).validate());
}

TEST(NodeParams, HomogeneousFactory) {
  const NodeSet nodes = homogeneous(5, 10.0, 500.0, 450.0);
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_TRUE(is_homogeneous(nodes));
  EXPECT_DOUBLE_EQ(nodes[3].transmit_power, 450.0);
}

TEST(NodeParams, IsHomogeneousDetectsDifference) {
  NodeSet nodes = homogeneous(3, 10.0, 500.0, 500.0);
  nodes[1].budget = 11.0;
  EXPECT_FALSE(is_homogeneous(nodes));
}

TEST(HeterogeneitySampler, H10DegeneratesToHomogeneous) {
  Rng rng(1);
  const NodeSet nodes = sample_heterogeneous(20, 10.0, rng);
  for (const auto& p : nodes) {
    EXPECT_DOUBLE_EQ(p.listen_power, 500.0);
    EXPECT_DOUBLE_EQ(p.transmit_power, 500.0);
    EXPECT_NEAR(p.budget, 10.0, 1e-9);  // exp(U[ln 10, ln 10]) = 10
  }
}

TEST(HeterogeneitySampler, PowerLevelsInPaperInterval) {
  Rng rng(2);
  const double h = 200.0;
  const NodeSet nodes = sample_heterogeneous(500, h, rng);
  for (const auto& p : nodes) {
    EXPECT_GE(p.listen_power, 510.0 - h);
    EXPECT_LE(p.listen_power, 490.0 + h);
    EXPECT_GE(p.transmit_power, 510.0 - h);
    EXPECT_LE(p.transmit_power, 490.0 + h);
    // ρ in [100/h, h] µW.
    EXPECT_GE(p.budget, 100.0 / h - 1e-9);
    EXPECT_LE(p.budget, h + 1e-9);
  }
}

TEST(HeterogeneitySampler, MeanPowerIs500ForAllH) {
  Rng rng(3);
  for (const double h : {50.0, 150.0, 250.0}) {
    double sum = 0.0;
    const NodeSet nodes = sample_heterogeneous(4000, h, rng);
    for (const auto& p : nodes) sum += p.listen_power;
    EXPECT_NEAR(sum / 4000.0, 500.0, h * 0.05);
  }
}

TEST(HeterogeneitySampler, BudgetMedianNearTen) {
  Rng rng(4);
  const NodeSet nodes = sample_heterogeneous(4001, 250.0, rng);
  std::vector<double> budgets;
  for (const auto& p : nodes) budgets.push_back(p.budget);
  std::sort(budgets.begin(), budgets.end());
  // Median of exp(U[-ln 2.5, ln 250]) = exp((ln 250 - ln 2.5)/2 - ... ):
  // the distribution of h' is uniform, so the median of ρ is
  // exp((lo+hi)/2) = exp((ln(100/h) + ln h)/2) = 10.
  EXPECT_NEAR(budgets[2000], 10.0, 1.5);
}

TEST(HeterogeneitySampler, RejectsOutOfRangeH) {
  Rng rng(5);
  EXPECT_THROW(sample_heterogeneous(5, 5.0, rng), std::invalid_argument);
  EXPECT_THROW(sample_heterogeneous(5, 300.0, rng), std::invalid_argument);
}

// -------------------------------------------------------------- topology --

TEST(Topology, CliqueProperties) {
  const Topology t = Topology::clique(6);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_TRUE(t.is_clique());
  EXPECT_EQ(t.edge_count(), 15u);
  EXPECT_EQ(t.degree(3), 5u);
  EXPECT_TRUE(t.adjacent(0, 5));
  EXPECT_FALSE(t.adjacent(2, 2));
}

TEST(Topology, SingleNodeCliqueIsClique) {
  const Topology t = Topology::clique(1);
  EXPECT_TRUE(t.is_clique());
  EXPECT_EQ(t.edge_count(), 0u);
}

TEST(Topology, GridDegreesAndEdges) {
  const Topology t = Topology::grid(5, 5);  // the paper's 25-node grid
  EXPECT_EQ(t.size(), 25u);
  EXPECT_FALSE(t.is_clique());
  EXPECT_EQ(t.edge_count(), 40u);  // 2*5*4
  EXPECT_EQ(t.degree(0), 2u);      // corner
  EXPECT_EQ(t.degree(2), 3u);      // edge
  EXPECT_EQ(t.degree(12), 4u);     // center
  EXPECT_TRUE(t.adjacent(0, 1));
  EXPECT_TRUE(t.adjacent(0, 5));
  EXPECT_FALSE(t.adjacent(0, 6));  // no diagonals
}

TEST(Topology, LineAndRing) {
  const Topology line = Topology::line(4);
  EXPECT_EQ(line.edge_count(), 3u);
  EXPECT_EQ(line.degree(0), 1u);
  const Topology ring = Topology::ring(5);
  EXPECT_EQ(ring.edge_count(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ring.degree(i), 2u);
  EXPECT_THROW(Topology::ring(2), std::invalid_argument);
}

TEST(Topology, FromEdgesAndDuplicates) {
  const Topology t = Topology::from_edges(4, {{0, 1}, {1, 0}, {2, 3}});
  EXPECT_EQ(t.edge_count(), 2u);  // duplicate collapsed
  EXPECT_THROW(Topology::from_edges(2, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Topology::from_edges(2, {{0, 5}}), std::out_of_range);
}

TEST(Topology, RandomGnpHasNoIsolatedNodes) {
  Rng rng(6);
  const Topology t = Topology::random_gnp(20, 0.2, rng);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_GE(t.degree(i), 1u);
}

TEST(Topology, NeighborsSortedAndSymmetric) {
  Rng rng(7);
  const Topology t = Topology::random_gnp(15, 0.3, rng);
  for (std::size_t i = 0; i < 15; ++i) {
    const auto& nb = t.neighbors(i);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (const std::size_t j : nb) {
      EXPECT_TRUE(t.adjacent(i, j));
      EXPECT_TRUE(t.adjacent(j, i));
    }
  }
}

// ----------------------------------------------------------- state space --

TEST(StateSpace, SizeFormula) {
  // |W| = (N+2) 2^(N-1).
  EXPECT_EQ(state_space_size(1), 3u);
  EXPECT_EQ(state_space_size(2), 8u);
  EXPECT_EQ(state_space_size(5), 112u);
  EXPECT_EQ(state_space_size(10), 6144u);
}

TEST(StateSpace, EnumerationCountMatchesFormula) {
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    std::uint64_t count = 0;
    for_each_state(n, [&](const NetState&) { ++count; });
    EXPECT_EQ(count, state_space_size(n)) << "N=" << n;
  }
}

TEST(StateSpace, EnumerationStatesAreValidAndUnique) {
  const std::size_t n = 5;
  std::set<std::pair<int, std::uint64_t>> seen;
  for_each_state(n, [&](const NetState& s) {
    // Transmitter never listens to itself.
    if (s.has_transmitter()) {
      EXPECT_EQ(s.listeners & (1ULL << s.transmitter), 0u);
    }
    EXPECT_LT(s.listeners, 1ULL << n);
    EXPECT_TRUE(seen.emplace(s.transmitter, s.listeners).second);
  });
  EXPECT_EQ(seen.size(), state_space_size(n));
}

TEST(StateSpace, IndexRoundTrip) {
  const std::size_t n = 6;
  for_each_state(n, [&](const NetState& s) {
    const std::uint64_t idx = state_index(n, s);
    ASSERT_LT(idx, state_space_size(n));
    const NetState back = state_at_index(n, idx);
    EXPECT_EQ(back.transmitter, s.transmitter);
    EXPECT_EQ(back.listeners, s.listeners);
  });
}

TEST(StateSpace, IndexIsDense) {
  const std::size_t n = 4;
  std::vector<bool> hit(state_space_size(n), false);
  for_each_state(n, [&](const NetState& s) {
    hit[state_index(n, s)] = true;
  });
  for (const bool b : hit) EXPECT_TRUE(b);
}

TEST(StateSpace, ThroughputDefinitions) {
  // Definition 3: T_w = ν_w c_w (groupput), ν_w γ_w (anyput).
  const NetState idle{-1, 0b0110};
  EXPECT_DOUBLE_EQ(state_throughput(idle, Mode::kGroupput), 0.0);
  EXPECT_DOUBLE_EQ(state_throughput(idle, Mode::kAnyput), 0.0);

  const NetState tx_three{2, 0b11011};  // tx=2, listeners {0,1,3,4}
  EXPECT_DOUBLE_EQ(state_throughput(tx_three, Mode::kGroupput), 4.0);
  EXPECT_DOUBLE_EQ(state_throughput(tx_three, Mode::kAnyput), 1.0);

  const NetState tx_alone{1, 0};
  EXPECT_DOUBLE_EQ(state_throughput(tx_alone, Mode::kGroupput), 0.0);
  EXPECT_DOUBLE_EQ(state_throughput(tx_alone, Mode::kAnyput), 0.0);
}

TEST(StateSpace, ListenerCountAndGamma) {
  const NetState s{0, 0b1010};
  EXPECT_EQ(s.listener_count(), 2);
  EXPECT_TRUE(s.any_listener());
  const NetState e{-1, 0};
  EXPECT_EQ(e.listener_count(), 0);
  EXPECT_FALSE(e.any_listener());
}

TEST(StateSpace, InvalidStatesRejected) {
  EXPECT_THROW(state_index(4, NetState{1, 0b0010}), std::invalid_argument);
  EXPECT_THROW(state_index(4, NetState{9, 0}), std::out_of_range);
  EXPECT_THROW(state_at_index(4, state_space_size(4)), std::out_of_range);
  EXPECT_THROW(for_each_state(0, [](const NetState&) {}),
               std::invalid_argument);
  EXPECT_THROW(for_each_state(30, [](const NetState&) {}),
               std::invalid_argument);
}

TEST(StateSpace, ModeToString) {
  EXPECT_STREQ(to_string(Mode::kGroupput), "groupput");
  EXPECT_STREQ(to_string(Mode::kAnyput), "anyput");
}

}  // namespace
