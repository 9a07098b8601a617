#include "sim/channel.h"

#include <algorithm>
#include <stdexcept>

namespace econcast::sim {

Channel::Channel(const model::Topology& topology, Arena* arena)
    : topo_(topology),
      listening_(topology.size(), 0, ArenaAllocator<std::uint8_t>(arena)),
      transmitting_(topology.size(), 0, ArenaAllocator<std::uint8_t>(arena)),
      busy_count_(topology.size(), 0, ArenaAllocator<std::uint32_t>(arena)),
      listen_count_(topology.size(), 0, ArenaAllocator<std::uint32_t>(arena)),
      lock_tx_(topology.size(), kNoNode, ArenaAllocator<NodeId>(arena)),
      corrupt_(topology.size(), 0, ArenaAllocator<std::uint8_t>(arena)),
      rx_head_(topology.size(), kNoNode, ArenaAllocator<NodeId>(arena)),
      rx_next_(topology.size(), kEndOfList, ArenaAllocator<NodeId>(arena)),
      toggled_flag_(topology.size(), 0, ArenaAllocator<std::uint8_t>(arena)),
      toggled_(ArenaAllocator<NodeId>(arena)),
      drained_(ArenaAllocator<NodeId>(arena)),
      outcome_(arena) {
  // The toggle set and the packet outcome are bounded by the node count and
  // the max degree; sizing them up front keeps the hot loop allocation-free.
  toggled_.reserve(topology.size());
  drained_.reserve(topology.size());
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < topology.size(); ++i)
    max_degree = std::max(max_degree, topology.neighbors(i).size());
  outcome_.clean_receivers.reserve(max_degree);
}

void Channel::mark_toggled(NodeId node) {
  if (!toggled_flag_[node]) {
    toggled_flag_[node] = 1;
    toggled_.push_back(node);
  }
}

void Channel::apply_listen_change(NodeId node, bool listening) {
  listening_[node] = listening ? 1 : 0;
  if (listening) {
    for (const std::size_t j : topo_.neighbors(node)) ++listen_count_[j];
  } else {
    for (const std::size_t j : topo_.neighbors(node)) --listen_count_[j];
  }
}

void Channel::set_listening(NodeId node, bool listening) {
  if (listening && transmitting_[node])
    throw std::logic_error("transmitting node cannot listen");
  if (static_cast<bool>(listening_[node]) != listening)
    apply_listen_change(node, listening);
  if (!listening) {
    lock_tx_[node] = kNoNode;
    corrupt_[node] = 0;
  }
}

void Channel::begin_burst(NodeId tx) {
  if (transmitting_[tx]) throw std::logic_error("already transmitting");
  if (busy_count_[tx] > 0)
    throw std::logic_error("carrier sense violated: medium busy at tx");
  // Leaves listen to transmit. The lock is untouched: a locked listener is
  // necessarily busy, and busy nodes cannot reach here.
  if (listening_[tx]) apply_listen_change(tx, false);
  transmitting_[tx] = 1;
  for (const std::size_t j : topo_.neighbors(tx)) {
    if (++busy_count_[j] == 1) mark_toggled(static_cast<NodeId>(j));
    // A second carrier corrupts any reception in progress at j.
    if (busy_count_[j] >= 2 && lock_tx_[j] != kNoNode) corrupt_[j] = 1;
  }
}

void Channel::begin_packet(NodeId tx) {
  if (!transmitting_[tx]) throw std::logic_error("begin_packet without burst");
  if (rx_head_[tx] != kNoNode)
    throw std::logic_error("begin_packet with a packet open");
  // Links the locked receivers, in neighbour order, behind rx_head_[tx].
  NodeId* tail = &rx_head_[tx];
  for (const std::size_t j : topo_.neighbors(tx)) {
    if (listening_[j] && busy_count_[j] == 1 && lock_tx_[j] == kNoNode) {
      lock_tx_[j] = tx;
      corrupt_[j] = 0;
      *tail = static_cast<NodeId>(j);
      tail = &rx_next_[j];
    }
  }
  *tail = kEndOfList;
}

const Channel::PacketOutcome& Channel::end_packet(NodeId tx) {
  if (!transmitting_[tx]) throw std::logic_error("end_packet without burst");
  if (rx_head_[tx] == kNoNode)
    throw std::logic_error("end_packet without a packet open");
  outcome_.clean_receivers.clear();
  outcome_.corrupted = 0;
  for (NodeId j = rx_head_[tx]; j != kEndOfList; j = rx_next_[j]) {
    if (lock_tx_[j] == tx) {
      if (corrupt_[j]) {
        ++outcome_.corrupted;
      } else {
        outcome_.clean_receivers.push_back(j);
      }
      lock_tx_[j] = kNoNode;
      corrupt_[j] = 0;
    }
  }
  rx_head_[tx] = kNoNode;
  return outcome_;
}

void Channel::end_burst(NodeId tx) {
  if (!transmitting_[tx]) throw std::logic_error("end_burst without burst");
  if (rx_head_[tx] != kNoNode)
    throw std::logic_error("end_burst with a packet open");
  transmitting_[tx] = 0;
  for (const std::size_t j : topo_.neighbors(tx)) {
    if (--busy_count_[j] == 0) mark_toggled(static_cast<NodeId>(j));
  }
}

bool Channel::busy_at(NodeId node) const {
  return busy_count_[node] > 0;
}

bool Channel::is_transmitting(NodeId node) const {
  return transmitting_[node] != 0;
}

int Channel::listening_neighbors_scan(NodeId node) const {
  int count = 0;
  for (const std::size_t j : topo_.neighbors(node)) count += listening_[j];
  return count;
}

const ArenaVector<NodeId>& Channel::drain_toggled() {
  for (const NodeId n : toggled_) toggled_flag_[n] = 0;
  drained_.swap(toggled_);
  toggled_.clear();
  return drained_;
}

}  // namespace econcast::sim
