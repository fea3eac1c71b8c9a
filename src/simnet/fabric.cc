#include "simnet/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace here::net {
namespace {

sim::Duration serialization_time(const sim::NicProfile& profile,
                                 std::uint64_t bytes,
                                 double bandwidth_factor = 1.0) {
  const double seconds = static_cast<double>(bytes) /
                         (profile.bytes_per_second() * bandwidth_factor);
  return sim::from_seconds(seconds) + profile.per_packet_overhead;
}

}  // namespace

NodeId Fabric::add_node(std::string name, Receiver receiver) {
  nodes_.push_back(Node{std::move(name), std::move(receiver), false});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Fabric::set_receiver(NodeId node, Receiver receiver) {
  nodes_.at(node).receiver = std::move(receiver);
}

void Fabric::connect(NodeId a, NodeId b, const sim::NicProfile& profile) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  directions_[{a, b}] = Direction{profile, sim::TimePoint{}};
  directions_[{b, a}] = Direction{profile, sim::TimePoint{}};
}

Fabric::Direction* Fabric::direction(NodeId from, NodeId to) {
  auto it = directions_.find({from, to});
  return it == directions_.end() ? nullptr : &it->second;
}

const Fabric::Direction* Fabric::direction(NodeId from, NodeId to) const {
  auto it = directions_.find({from, to});
  return it == directions_.end() ? nullptr : &it->second;
}

sim::TimePoint Fabric::send(Packet packet) {
  Direction* dir = direction(packet.src, packet.dst);
  if (dir == nullptr) {
    throw std::invalid_argument("Fabric::send: nodes not connected");
  }
  packet.sent_at = sim_.now();
  if (dir->down) {
    // Partitioned link: the packet leaves the NIC and vanishes.
    ++dropped_;
    if (m_dropped_ != nullptr) m_dropped_->increment();
    return sim_.now() + dir->profile.latency;
  }
  if (dir->loss > 0.0 && loss_rng_.uniform_real(0.0, 1.0) < dir->loss) {
    // Random loss: the wire is not occupied (the frame corrupts in flight),
    // matching how a receiver-side CRC failure looks to the sender.
    ++dropped_;
    ++lost_;
    if (m_dropped_ != nullptr) m_dropped_->increment();
    if (m_lost_ != nullptr) m_lost_->increment();
    return sim_.now() + dir->profile.latency + dir->extra_latency;
  }
  const sim::TimePoint start = std::max(sim_.now(), dir->wire_free);
  const sim::TimePoint wire_done =
      start +
      serialization_time(dir->profile, packet.size_bytes, dir->bandwidth_factor);
  dir->wire_free = wire_done;
  const sim::TimePoint delivery =
      wire_done + dir->profile.latency + dir->extra_latency;

  const sim::Duration queueing = start - sim_.now();
  if (m_packets_ != nullptr) {
    m_packets_->increment();
    m_bytes_->add(packet.size_bytes);
    m_queue_us_->add(sim::to_micros(queueing));
  }
  if (tracer_ != nullptr) {
    tracer_->instant(sim_.now(), "net.send", "net",
                     {{"src", packet.src},
                      {"dst", packet.dst},
                      {"bytes", packet.size_bytes},
                      {"queue_ns", queueing.count()}});
  }

  const NodeId dst = packet.dst;
  sim_.schedule_at(delivery, [this, packet = std::move(packet), dst] {
    Node& node = nodes_[dst];
    if (node.down || !node.receiver) {
      ++dropped_;
      if (m_dropped_ != nullptr) m_dropped_->increment();
      return;
    }
    ++delivered_;
    node.receiver(packet);
  });
  return delivery;
}

void Fabric::set_node_down(NodeId node, bool down) {
  nodes_.at(node).down = down;
}

void Fabric::set_link_down(NodeId a, NodeId b, bool down) {
  Direction* ab = direction(a, b);
  Direction* ba = direction(b, a);
  if (ab == nullptr || ba == nullptr) {
    throw std::invalid_argument("Fabric::set_link_down: not connected");
  }
  ab->down = down;
  ba->down = down;
}

bool Fabric::link_down(NodeId a, NodeId b) const {
  const Direction* dir = direction(a, b);
  return dir != nullptr && dir->down;
}

Fabric::Direction& Fabric::impairable(NodeId a, NodeId b, const char* op) {
  Direction* dir = direction(a, b);
  if (dir == nullptr) {
    throw std::invalid_argument(std::string("Fabric::") + op +
                                ": not connected");
  }
  return *dir;
}

void Fabric::set_link_loss(NodeId a, NodeId b, double probability) {
  const double p = std::clamp(probability, 0.0, 0.999);
  impairable(a, b, "set_link_loss").loss = p;
  impairable(b, a, "set_link_loss").loss = p;
}

void Fabric::set_link_extra_latency(NodeId a, NodeId b, sim::Duration extra) {
  const sim::Duration e = std::max(extra, sim::Duration{0});
  impairable(a, b, "set_link_extra_latency").extra_latency = e;
  impairable(b, a, "set_link_extra_latency").extra_latency = e;
}

void Fabric::set_link_bandwidth_factor(NodeId a, NodeId b, double factor) {
  const double f = std::clamp(factor, 1e-3, 1.0);
  impairable(a, b, "set_link_bandwidth_factor").bandwidth_factor = f;
  impairable(b, a, "set_link_bandwidth_factor").bandwidth_factor = f;
}

void Fabric::set_link_bit_error_rate(NodeId a, NodeId b, double rate) {
  const double r = std::clamp(rate, 0.0, 0.01);
  impairable(a, b, "set_link_bit_error_rate").bit_error_rate = r;
  impairable(b, a, "set_link_bit_error_rate").bit_error_rate = r;
}

void Fabric::set_link_truncation(NodeId a, NodeId b, double probability) {
  const double p = std::clamp(probability, 0.0, 1.0);
  impairable(a, b, "set_link_truncation").truncate_prob = p;
  impairable(b, a, "set_link_truncation").truncate_prob = p;
}

void Fabric::set_link_duplication(NodeId a, NodeId b, double probability) {
  const double p = std::clamp(probability, 0.0, 1.0);
  impairable(a, b, "set_link_duplication").duplicate_prob = p;
  impairable(b, a, "set_link_duplication").duplicate_prob = p;
}

void Fabric::set_link_reordering(NodeId a, NodeId b, double probability) {
  const double p = std::clamp(probability, 0.0, 1.0);
  impairable(a, b, "set_link_reordering").reorder_prob = p;
  impairable(b, a, "set_link_reordering").reorder_prob = p;
}

FrameFate Fabric::transmit_frame(NodeId a, NodeId b,
                                 std::span<std::uint8_t> payload) {
  return transmit(a, b, payload.size(), payload.data());
}

FrameFate Fabric::transmit_readonly_frame(
    NodeId a, NodeId b, std::span<const std::uint8_t> payload) {
  if (link_quality(a, b).mutates_frames()) {
    throw std::logic_error(
        "Fabric::transmit_readonly_frame: direction damages frames");
  }
  return transmit(a, b, payload.size(), nullptr);
}

FrameFate Fabric::transmit(NodeId a, NodeId b, std::size_t bytes,
                           std::uint8_t* writable) {
  Direction* dir = direction(a, b);
  if (dir == nullptr) {
    throw std::invalid_argument("Fabric::transmit_frame: not connected");
  }
  FrameFate fate;
  fate.delivered_bytes = bytes;
  ++frames_sent_;
  frame_bytes_sent_ += bytes;
  if (m_frame_bytes_ != nullptr) {
    m_frame_bytes_->add(static_cast<double>(bytes));
  }
  // A cut link or a down node at either end loses the frame, as a packet.
  if (dir->down || nodes_[a].down || nodes_[b].down) {
    fate.lost = true;
    fate.delivered_bytes = 0;
    return fate;
  }
  // Fixed draw order (bit errors, truncation, duplication, reordering); each
  // knob's draws are consumed only while that knob is non-zero, so enabling
  // one impairment never perturbs another's stream.
  if (dir->bit_error_rate > 0.0 && bytes > 0) {
    // Geometric skipping: jump straight to the next flipped bit instead of
    // drawing once per bit (a 2 MiB frame is ~16.8M bits).
    const double log_keep = std::log1p(-dir->bit_error_rate);
    const std::uint64_t total_bits = bytes * 8;
    std::uint64_t bit = 0;
    while (true) {
      const double u = data_rng_.uniform01();
      const double skip = std::floor(std::log1p(-u) / log_keep);
      if (skip >= static_cast<double>(total_bits - bit)) break;
      bit += static_cast<std::uint64_t>(skip);
      writable[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ++fate.bit_flips;
      ++bit;
      if (bit >= total_bits) break;
    }
  }
  if (dir->truncate_prob > 0.0 && bytes > 0 &&
      data_rng_.bernoulli(dir->truncate_prob)) {
    fate.truncated = true;
    fate.delivered_bytes = data_rng_.uniform(bytes);
  }
  if (dir->duplicate_prob > 0.0 && data_rng_.bernoulli(dir->duplicate_prob)) {
    fate.duplicated = true;
  }
  if (dir->reorder_prob > 0.0 && data_rng_.bernoulli(dir->reorder_prob)) {
    fate.reordered = true;
  }
  if (fate.damaged()) {
    ++frames_damaged_;
    if (tracer_ != nullptr) {
      tracer_->instant(sim_.now(), "net.frame_damaged", "net",
                       {{"src", a},
                        {"dst", b},
                        {"bit_flips", fate.bit_flips},
                        {"bytes", fate.delivered_bytes}});
    }
  }
  return fate;
}

void Fabric::seed_impairments(std::uint64_t seed) {
  loss_rng_ = sim::Rng(seed);
  data_rng_ = sim::Rng(seed ^ 0xda7ab17f5eedULL);
}

bool Fabric::connected(NodeId a, NodeId b) const {
  return direction(a, b) != nullptr;
}

LinkQuality Fabric::link_quality(NodeId a, NodeId b) const {
  const Direction* dir = direction(a, b);
  if (dir == nullptr) return {};
  LinkQuality q;
  q.connected = true;
  q.down = dir->down;
  q.loss = dir->loss;
  q.extra_latency = dir->extra_latency;
  q.bandwidth_factor = dir->bandwidth_factor;
  q.bit_error_rate = dir->bit_error_rate;
  q.truncate_prob = dir->truncate_prob;
  q.duplicate_prob = dir->duplicate_prob;
  q.reorder_prob = dir->reorder_prob;
  return q;
}

bool Fabric::node_down(NodeId node) const { return nodes_.at(node).down; }

const std::string& Fabric::node_name(NodeId node) const {
  return nodes_.at(node).name;
}

sim::Duration Fabric::estimate_transfer(NodeId a, NodeId b,
                                        std::uint64_t bytes) const {
  const Direction* dir = direction(a, b);
  if (dir == nullptr) {
    throw std::invalid_argument("Fabric::estimate_transfer: not connected");
  }
  sim::Duration queue{0};
  if (dir->wire_free > sim_.now()) queue = dir->wire_free - sim_.now();
  return queue + serialization_time(dir->profile, bytes, dir->bandwidth_factor) +
         dir->profile.latency + dir->extra_latency;
}

sim::TimePoint Fabric::bulk_transfer(NodeId a, NodeId b, std::uint64_t bytes) {
  Direction* dir = direction(a, b);
  if (dir == nullptr) {
    throw std::invalid_argument("Fabric::bulk_transfer: not connected");
  }
  const sim::TimePoint start = std::max(sim_.now(), dir->wire_free);
  const sim::TimePoint wire_done =
      start + serialization_time(dir->profile, bytes, dir->bandwidth_factor);
  dir->wire_free = wire_done;
  const sim::Duration queueing = start - sim_.now();
  if (m_packets_ != nullptr) {
    m_bytes_->add(bytes);
    m_queue_us_->add(sim::to_micros(queueing));
  }
  if (tracer_ != nullptr) {
    tracer_->instant(sim_.now(), "net.bulk", "net",
                     {{"src", a},
                      {"dst", b},
                      {"bytes", bytes},
                      {"queue_ns", queueing.count()}});
  }
  return wire_done + dir->profile.latency + dir->extra_latency;
}

void Fabric::attach_obs(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (metrics != nullptr) {
    m_packets_ = &metrics->counter("net.packets_sent");
    m_bytes_ = &metrics->counter("net.bytes_sent");
    m_dropped_ = &metrics->counter("net.packets_dropped");
    m_lost_ = &metrics->counter("net.packets_lost");
    m_frame_bytes_ = &metrics->counter("net.frame_bytes_sent");
    m_queue_us_ = &metrics->histogram(
        "net.queue_us", {1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 100000});
  }
}

}  // namespace here::net
