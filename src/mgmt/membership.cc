#include "mgmt/membership.h"

#include "common/log.h"

namespace here::mgmt {

MembershipManager::MembershipManager(sim::Simulation& simulation,
                                     net::Fabric& fabric, Config config)
    : sim_(simulation), fabric_(fabric), config_(config) {
  probe_node_ = fabric_.add_node(
      "mgmt.membership", [this](const net::Packet& packet) { on_ack(packet); });
}

MembershipManager::~MembershipManager() { sim_.cancel(tick_event_); }

void MembershipManager::track(hv::Host& host) {
  for (const Entry& entry : entries_) {
    if (entry.host == &host) return;
  }
  entries_.push_back({.host = &host});
  fabric_.connect(probe_node_, host.eth_node(), config_.probe_nic);
  // The responder rides the host's guest-Ethernet dispatch: a crashed, hung
  // or microrebooting host never runs it, which is the liveness signal.
  hv::Host* target = &host;
  host.add_eth_handler(this, [this, target](const net::Packet& packet) {
    if (packet.kind != kMembershipProbeKind) return;
    if (packet.src != probe_node_) return;
    fabric_.send({.src = target->eth_node(),
                  .dst = probe_node_,
                  .size_bytes = 64,
                  .kind = kMembershipAckKind,
                  .tag = packet.tag});
  });
}

void MembershipManager::start() {
  if (running_) return;
  running_ = true;
  tick_event_ = sim_.schedule_after(config_.probe_interval, [this] { tick(); },
                                    "mgmt-membership");
}

void MembershipManager::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(tick_event_);
}

void MembershipManager::on_ack(const net::Packet& packet) {
  if (packet.kind != kMembershipAckKind) return;
  for (Entry& entry : entries_) {
    if (entry.host->eth_node() != packet.src) continue;
    // Only the current round's ack counts; a stale one (delayed past the
    // next round boundary) is ignored rather than masking a fresh miss.
    if (packet.tag == round_ && entry.acked_round < round_) {
      entry.acked_round = round_;
      ++entry.acks;
    }
    return;
  }
}

void MembershipManager::transition(Entry& entry, HostState next) {
  if (entry.state == next) return;
  const HostState prev = entry.state;
  HERE_LOG(kInfo, "membership: host '%s' %s -> %s",
           entry.host->name().c_str(), to_string(prev), to_string(next));
  entry.state = next;
  ++entry.transitions;
  switch (next) {
    case HostState::kJoining:
      break;  // observed again; admission waits for the next ack
    case HostState::kUp:
      // kSuspect -> kUp is a recovery, not an admission: the host never left
      // the ring, so re-announcing it would double-place its domains.
      if (prev == HostState::kJoining && callbacks_.on_admitted) {
        callbacks_.on_admitted(*entry.host);
      }
      break;
    case HostState::kSuspect:
      if (callbacks_.on_suspect) callbacks_.on_suspect(*entry.host);
      break;
    case HostState::kDown:
      if (callbacks_.on_down) callbacks_.on_down(*entry.host);
      break;
  }
}

void MembershipManager::evaluate(Entry& entry, bool acked) {
  if (acked) {
    entry.misses = 0;
    switch (entry.state) {
      case HostState::kJoining:
        transition(entry, HostState::kUp);
        break;
      case HostState::kUp:
        break;
      case HostState::kSuspect:
        transition(entry, HostState::kUp);
        break;
      case HostState::kDown:
        // Back from the dead: observe one full round before re-admission so
        // a flapping host cannot bounce straight onto the ring.
        transition(entry, HostState::kJoining);
        break;
    }
    return;
  }
  ++entry.misses;
  switch (entry.state) {
    case HostState::kJoining:
      break;  // never admitted, nothing to demote
    case HostState::kUp:
      if (entry.misses >= config_.suspect_after) {
        transition(entry, HostState::kSuspect);
      }
      break;
    case HostState::kSuspect:
      if (entry.misses >= config_.down_after) {
        transition(entry, HostState::kDown);
      }
      break;
    case HostState::kDown:
      break;
  }
}

void MembershipManager::tick() {
  // Close out the round that just elapsed (if any), in track order.
  if (round_ > 0) {
    for (Entry& entry : entries_) {
      evaluate(entry, entry.acked_round == round_);
    }
  }
  // Open the next round: one probe per tracked host.
  ++round_;
  for (Entry& entry : entries_) {
    ++entry.probes;
    fabric_.send({.src = probe_node_,
                  .dst = entry.host->eth_node(),
                  .size_bytes = 64,
                  .kind = kMembershipProbeKind,
                  .tag = round_});
  }
  if (running_) {
    tick_event_ = sim_.schedule_after(config_.probe_interval,
                                      [this] { tick(); }, "mgmt-membership");
  }
}

const MembershipManager::Entry* MembershipManager::find(
    const hv::Host& host) const {
  for (const Entry& entry : entries_) {
    if (entry.host == &host) return &entry;
  }
  return nullptr;
}

HostState MembershipManager::state(const hv::Host& host) const {
  const Entry* entry = find(host);
  return entry != nullptr ? entry->state : HostState::kDown;
}

std::vector<MembershipManager::Row> MembershipManager::table() const {
  std::vector<Row> rows;
  rows.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    rows.push_back({entry.host->name(), entry.state, entry.misses,
                    entry.probes, entry.acks, entry.transitions});
  }
  return rows;
}

}  // namespace here::mgmt
