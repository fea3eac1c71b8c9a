// Point-to-point network fabric with bandwidth serialization and latency.
//
// Models both physical networks of the paper's testbed (Table 3): the
// 10 GbE guest Ethernet and the 100 Gbit/s Omni-Path replication
// interconnect. Each direction of a link serializes packets at line rate;
// delivery happens `latency` after the last byte leaves the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/hardware_profile.h"
#include "sim/rng.h"
#include "simnet/packet.h"

namespace here::net {

// Snapshot of one direction's health, as seen by senders that must plan
// around a degraded wire (the replication engine budgets checkpoint
// transfers with this).
struct LinkQuality {
  bool connected = false;
  bool down = false;
  double loss = 0.0;              // per-packet drop probability in [0, 1)
  sim::Duration extra_latency{};  // added to every delivery
  double bandwidth_factor = 1.0;  // effective line rate multiplier in (0, 1]
  // Data-plane impairments (checkpoint frames; see transmit_frame).
  double bit_error_rate = 0.0;    // per-bit flip probability in [0, 1)
  double truncate_prob = 0.0;     // per-frame truncation probability
  double duplicate_prob = 0.0;    // per-frame duplicate-delivery probability
  double reorder_prob = 0.0;      // per-frame late-delivery probability

  // Whether transmit_frame can change a frame's bytes on this direction.
  [[nodiscard]] bool mutates_frames() const {
    return bit_error_rate > 0.0 || truncate_prob > 0.0;
  }
};

// What the wire did to one checkpoint frame (see Fabric::transmit_frame).
// All-false means the frame arrived pristine, in order, exactly once.
struct FrameFate {
  bool lost = false;            // link down: no byte arrived
  std::uint32_t bit_flips = 0;  // payload bits flipped in place
  bool truncated = false;       // tail cut; `delivered_bytes` arrived
  std::uint64_t delivered_bytes = 0;
  bool duplicated = false;      // receiver sees the frame a second time
  bool reordered = false;       // frame overtaken; arrives after its peers

  [[nodiscard]] bool damaged() const { return bit_flips > 0 || truncated; }
};

class Fabric {
 public:
  using Receiver = std::function<void(const Packet&)>;

  explicit Fabric(sim::Simulation& simulation) : sim_(simulation) {}

  // Registers an endpoint; `receiver` runs (in virtual time) on delivery.
  NodeId add_node(std::string name, Receiver receiver);

  // Replaces a node's receiver (used when a replica VM takes over a service
  // address after failover).
  void set_receiver(NodeId node, Receiver receiver);

  // Creates a duplex link between two nodes with the given NIC profile.
  // At most one link per node pair.
  void connect(NodeId a, NodeId b, const sim::NicProfile& profile);

  // Sends `packet` (src/dst must be connected). Stamps sent_at, occupies the
  // link for the serialization time and schedules delivery. Returns the
  // delivery time. If the destination node is marked down, the packet is
  // dropped (delivery time is still returned for accounting).
  sim::TimePoint send(Packet packet);

  // A node that is down drops all packets addressed to it and loses every
  // checkpoint frame to or from it (used to model a crashed host).
  void set_node_down(NodeId node, bool down);
  [[nodiscard]] bool node_down(NodeId node) const;

  // Partitions (or heals) the link between two nodes: packets in both
  // directions are silently lost while partitioned. Models an interconnect
  // cable pull / switch failure — the split-brain scenario.
  void set_link_down(NodeId a, NodeId b, bool down);
  [[nodiscard]] bool link_down(NodeId a, NodeId b) const;

  // --- Link impairments (src/faults drives these) -----------------------------
  //
  // All setters apply to both directions of the link and throw
  // std::invalid_argument when the nodes are not connected. Impairments
  // compose: a lossy link can also be slow and latency-spiked.

  // Independent per-packet drop probability (clamped to [0, 0.999]). Loss
  // draws come from the fabric's own deterministic stream, consumed only
  // while loss is non-zero — fault-free runs stay byte-identical.
  void set_link_loss(NodeId a, NodeId b, double probability);
  // Latency spike: added to every delivery (and to bulk completions).
  void set_link_extra_latency(NodeId a, NodeId b, sim::Duration extra);
  // Bandwidth degradation: effective line rate = profile rate * factor
  // (factor clamped to (0, 1]; 1 restores full speed).
  void set_link_bandwidth_factor(NodeId a, NodeId b, double factor);

  // --- Data-plane impairments (checkpoint frames) ------------------------------
  //
  // These corrupt frame *content* rather than dropping packets: the
  // replication wire layer detects them with per-region CRCs and repairs via
  // selective retransmission. All draws come from a dedicated deterministic
  // stream, consumed only while the corresponding knob is non-zero.

  // Independent per-bit flip probability (clamped to [0, 0.01]).
  void set_link_bit_error_rate(NodeId a, NodeId b, double rate);
  // Per-frame probability that the frame's tail is cut mid-payload.
  void set_link_truncation(NodeId a, NodeId b, double probability);
  // Per-frame probability of a duplicate delivery.
  void set_link_duplication(NodeId a, NodeId b, double probability);
  // Per-frame probability of the frame being overtaken (late delivery).
  void set_link_reordering(NodeId a, NodeId b, double probability);

  // Pushes one checkpoint frame's payload through the a->b data plane,
  // applying bit errors / truncation in place and reporting duplication /
  // reordering for the caller's delivery loop; a cut link or a down node at
  // either end loses it. Does NOT occupy the wire or advance time — the
  // replication time model charges transfer costs separately. Throws
  // std::invalid_argument when not connected.
  FrameFate transmit_frame(NodeId a, NodeId b,
                           std::span<std::uint8_t> payload);
  // transmit_frame for a direction whose link_quality() does not
  // mutates_frames(): same accounting and draws, over bytes nobody writes,
  // so the sender's frame can be delivered without a private copy. Throws
  // std::logic_error when the direction could damage the frame.
  FrameFate transmit_readonly_frame(NodeId a, NodeId b,
                                    std::span<const std::uint8_t> payload);

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_damaged() const { return frames_damaged_; }
  // Total checkpoint-frame payload bytes offered to the data plane (encoded
  // bytes when the stream runs an encoder; retransmissions count again).
  // This is what the encoder ablation reads to prove the wire got cheaper.
  [[nodiscard]] std::uint64_t frame_bytes_sent() const {
    return frame_bytes_sent_;
  }

  // Reseeds the loss + data-plane streams (same seed + same plan => same
  // drops and same corruptions).
  void seed_impairments(std::uint64_t seed);

  [[nodiscard]] bool connected(NodeId a, NodeId b) const;
  // All-zeros/connected=false when no link exists (never throws).
  [[nodiscard]] LinkQuality link_quality(NodeId a, NodeId b) const;
  [[nodiscard]] std::uint64_t lost_count() const { return lost_; }

  [[nodiscard]] const std::string& node_name(NodeId node) const;
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }

  // Pure time query: when would `bytes` complete if sent now on the a->b
  // direction, *without* occupying the link. Used by the replication time
  // model for bulk-transfer estimation.
  [[nodiscard]] sim::Duration estimate_transfer(NodeId a, NodeId b,
                                                std::uint64_t bytes) const;

  // Occupies the a->b direction with a bulk transfer of `bytes` and returns
  // its completion time (including latency). Bulk transfers share the wire
  // with packets via the same serialization clock.
  sim::TimePoint bulk_transfer(NodeId a, NodeId b, std::uint64_t bytes);

  // Observability hooks (src/obs): neither pointer is owned and either may
  // be null. With a tracer, every send/bulk transfer emits a "net" event
  // carrying bytes and queueing delay; with metrics, packet/byte/drop
  // counters and a queueing-delay histogram are kept under "net.*".
  void attach_obs(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

 private:
  struct Direction {
    sim::NicProfile profile;
    sim::TimePoint wire_free{};  // when the sender may put the next byte on the wire
    bool down = false;
    double loss = 0.0;
    sim::Duration extra_latency{};
    double bandwidth_factor = 1.0;
    double bit_error_rate = 0.0;
    double truncate_prob = 0.0;
    double duplicate_prob = 0.0;
    double reorder_prob = 0.0;
  };

  Direction* direction(NodeId from, NodeId to);
  [[nodiscard]] const Direction* direction(NodeId from, NodeId to) const;
  // Shared body of the transmit_frame variants; `writable` is null only
  // when the direction cannot flip bits.
  FrameFate transmit(NodeId a, NodeId b, std::size_t bytes,
                     std::uint8_t* writable);

  struct Node {
    std::string name;
    Receiver receiver;
    bool down = false;
  };

  Direction& impairable(NodeId a, NodeId b, const char* op);

  sim::Simulation& sim_;
  std::vector<Node> nodes_;
  std::map<std::pair<NodeId, NodeId>, Direction> directions_;
  sim::Rng loss_rng_{0x10559eedULL};  // dedicated stream for loss draws
  sim::Rng data_rng_{0xda7ab17fULL};  // dedicated stream for data-plane faults
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_damaged_ = 0;
  std::uint64_t frame_bytes_sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t lost_ = 0;  // subset of dropped_: random loss, not partition

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_packets_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Counter* m_lost_ = nullptr;
  obs::Counter* m_frame_bytes_ = nullptr;
  obs::FixedHistogram* m_queue_us_ = nullptr;
};

}  // namespace here::net
