#include "mgmt/placement.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>

#include "common/fnv.h"

namespace here::mgmt {

PlacementRing::PlacementRing(PlacementConfig config) : config_(config) {}

std::uint64_t PlacementRing::hash_key(std::string_view key) {
  // FNV-1a, 64-bit. Stable across platforms and runs by construction.
  return common::fnv1a(key);
}

std::uint64_t PlacementRing::ring_point(std::string_view key) {
  // splitmix64 finalizer over the FNV value: full-width avalanche, still a
  // pure function of the key.
  std::uint64_t z = hash_key(key);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

double PlacementRing::kind_weight(const hv::Host& host) const {
  switch (host.hypervisor().kind()) {
    case hv::HvKind::kXen: return config_.xen_weight;
    case hv::HvKind::kKvm: return config_.kvm_weight;
  }
  return 1.0;
}

bool PlacementRing::add_host(hv::Host& host, double capacity_weight) {
  std::lock_guard lock(mu_);
  for (const Member& member : members_) {
    if (member.host == &host) return false;
  }
  const double scale = std::max(capacity_weight, 0.0) * kind_weight(host);
  const auto vnodes = static_cast<std::uint32_t>(std::max<long long>(
      1, std::llround(static_cast<double>(config_.vnodes_per_host) * scale)));
  members_.push_back({&host, capacity_weight, vnodes});
  for (std::uint32_t i = 0; i < vnodes; ++i) {
    const std::uint64_t point =
        ring_point(host.name() + "#" + std::to_string(i));
    ring_.push_back({point, &host, i});
  }
  std::sort(ring_.begin(), ring_.end(), [](const Vnode& a, const Vnode& b) {
    if (a.point != b.point) return a.point < b.point;
    if (a.host->name() != b.host->name()) {
      return a.host->name() < b.host->name();
    }
    return a.index < b.index;
  });
  return true;
}

bool PlacementRing::remove_host(const hv::Host& host) {
  std::lock_guard lock(mu_);
  const auto member = std::find_if(
      members_.begin(), members_.end(),
      [&](const Member& m) { return m.host == &host; });
  if (member == members_.end()) return false;
  members_.erase(member);
  std::erase_if(ring_, [&](const Vnode& v) { return v.host == &host; });
  return true;
}

bool PlacementRing::contains(const hv::Host& host) const {
  std::lock_guard lock(mu_);
  return std::any_of(members_.begin(), members_.end(),
                     [&](const Member& m) { return m.host == &host; });
}

std::size_t PlacementRing::host_count() const {
  std::lock_guard lock(mu_);
  return members_.size();
}

std::size_t PlacementRing::vnode_count() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

std::vector<hv::Host*> PlacementRing::walk_locked(const std::string& domain,
                                                  std::size_t n) const {
  std::vector<hv::Host*> walk;
  if (ring_.empty() || n == 0) return walk;
  const std::uint64_t point = ring_point(domain);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const Vnode& v, std::uint64_t p) { return v.point < p; });
  for (std::size_t step = 0; step < ring_.size() && walk.size() < n; ++step) {
    if (it == ring_.end()) it = ring_.begin();  // clockwise wraparound
    if (std::find(walk.begin(), walk.end(), it->host) == walk.end()) {
      walk.push_back(it->host);
    }
    ++it;
  }
  return walk;
}

std::vector<hv::Host*> PlacementRing::preference(const std::string& domain,
                                                 std::size_t n) const {
  std::lock_guard lock(mu_);
  return walk_locked(domain, n);
}

Expected<PlacementRing::Pair> PlacementRing::place(
    const std::string& domain) const {
  return place(domain, [](const hv::Host&) { return std::size_t{0}; },
               std::numeric_limits<std::size_t>::max());
}

Expected<PlacementRing::Pair> PlacementRing::place(const std::string& domain,
                                                   const LoadFn& load,
                                                   std::size_t cap) const {
  std::vector<hv::Host*> walk;
  {
    std::lock_guard lock(mu_);
    walk = walk_locked(domain, members_.size());
  }
  if (walk.empty()) {
    return Status::unavailable("placement: ring is empty");
  }
  // Primary: nearest walk host with headroom; cap waived when all are full.
  hv::Host* primary = nullptr;
  for (hv::Host* host : walk) {
    if (load(*host) < cap) {
      primary = host;
      break;
    }
  }
  if (primary == nullptr) primary = walk.front();
  // Secondary: nearest *other-kind* walk host with headroom, then without.
  const hv::HvKind primary_kind = primary->hypervisor().kind();
  hv::Host* secondary = nullptr;
  hv::Host* fallback = nullptr;
  for (hv::Host* host : walk) {
    if (host == primary || host->hypervisor().kind() == primary_kind) continue;
    if (fallback == nullptr) fallback = host;
    if (load(*host) < cap) {
      secondary = host;
      break;
    }
  }
  if (secondary == nullptr) secondary = fallback;
  if (secondary == nullptr) {
    return Status::unavailable(
        "placement: no heterogeneous partner on the ring for '" + domain +
        "' (primary kind " +
        std::string(hv::to_string(primary_kind)) + ")");
  }
  return Pair{primary, secondary};
}

Expected<hv::Host*> PlacementRing::secondary_for(const std::string& domain,
                                                 const hv::Host& primary,
                                                 const hv::Host* exclude) const {
  return secondary_for(domain, primary, exclude,
                       [](const hv::Host&) { return std::size_t{0}; },
                       std::numeric_limits<std::size_t>::max());
}

Expected<hv::Host*> PlacementRing::secondary_for(const std::string& domain,
                                                 const hv::Host& primary,
                                                 const hv::Host* exclude,
                                                 const LoadFn& load,
                                                 std::size_t cap) const {
  std::vector<hv::Host*> walk;
  {
    std::lock_guard lock(mu_);
    walk = walk_locked(domain, members_.size());
  }
  const hv::HvKind primary_kind = primary.hypervisor().kind();
  hv::Host* fallback = nullptr;
  for (hv::Host* host : walk) {
    if (host == &primary || host == exclude) continue;
    if (host->hypervisor().kind() == primary_kind) continue;
    if (fallback == nullptr) fallback = host;
    if (load(*host) < cap) return host;
  }
  if (fallback != nullptr) return fallback;
  return Status::unavailable(
      "placement: no heterogeneous secondary on the ring for '" + domain +
      "'");
}

double PlacementRing::keyspace_share(const hv::Host& host) const {
  std::lock_guard lock(mu_);
  if (ring_.empty()) return 0.0;
  if (members_.size() == 1) {
    return members_.front().host == &host ? 1.0 : 0.0;
  }
  // Arc owned by vnode i spans (point[i-1], point[i]], wrapping at the top
  // of the 64-bit circle. Unsigned subtraction handles the wrap.
  long double owned = 0.0L;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].host != &host) continue;
    const std::uint64_t prev =
        ring_[(i + ring_.size() - 1) % ring_.size()].point;
    owned += static_cast<long double>(ring_[i].point - prev);
  }
  return static_cast<double>(owned / 18446744073709551616.0L);  // / 2^64
}

std::size_t PlacementRing::load_cap(std::size_t n) const {
  std::lock_guard lock(mu_);
  if (config_.balance_factor <= 1.0 || members_.empty()) {
    return std::numeric_limits<std::size_t>::max();
  }
  const double ideal =
      static_cast<double>(n) / static_cast<double>(members_.size());
  const auto cap = static_cast<std::size_t>(
      std::ceil(config_.balance_factor * ideal));
  return std::max<std::size_t>(cap, 1);
}

RebalancePlan RebalanceOrchestrator::plan(const std::vector<ReplicaFlow>& flows,
                                          const PlacementRing::LoadFn& load,
                                          std::size_t cap) const {
  RebalancePlan plan;
  // Loads as this plan would leave them: one tick must not stampede a single
  // target host with every planned move.
  std::vector<std::pair<hv::Host*, std::int64_t>> deltas;
  const auto load_now = [&](const hv::Host& host) -> std::size_t {
    std::int64_t n = static_cast<std::int64_t>(load(host));
    for (const auto& [h, d] : deltas) {
      if (h == &host) n += d;
    }
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  };
  const auto bump = [&](hv::Host* host, std::int64_t by) {
    for (auto& [h, d] : deltas) {
      if (h == host) {
        d += by;
        return;
      }
    }
    deltas.emplace_back(host, by);
  };
  std::vector<std::string> planned;  // domains already moving this tick
  const auto add_move = [&](const ReplicaFlow& flow, hv::Host* to,
                            RebalanceMove::Why why) {
    if (plan.moves.size() >=
        static_cast<std::size_t>(config_.moves_per_tick)) {
      ++plan.deferred;
      return;
    }
    plan.moves.push_back({flow.domain, flow.secondary, to, why});
    planned.push_back(flow.domain);
    bump(flow.secondary, -1);
    bump(to, +1);
  };
  const auto is_planned = [&](const std::string& domain) {
    return std::find(planned.begin(), planned.end(), domain) != planned.end();
  };

  // Pass 1 — drift: replicas displaced from their ring-ideal secondary
  // (typically by a past host failure) migrate back once the ideal host is
  // live on the ring and under the cap.
  for (const ReplicaFlow& flow : flows) {
    if (flow.primary == nullptr || flow.secondary == nullptr) continue;
    const Expected<hv::Host*> ideal =
        ring_.secondary_for(flow.domain, *flow.primary);
    if (!ideal.ok()) continue;
    if (*ideal == flow.secondary || !(*ideal)->alive()) continue;
    if (load_now(**ideal) >= cap) continue;  // no headroom: wait, don't pile on
    add_move(flow, *ideal, RebalanceMove::Why::kDrift);
  }

  // Pass 2 — saturation: per-link aggregate queueing share, in first-flow
  // order (deterministic).
  std::vector<std::pair<hv::Host*, double>> link_share;
  for (const ReplicaFlow& flow : flows) {
    if (flow.secondary == nullptr) continue;
    bool found = false;
    for (auto& [host, share] : link_share) {
      if (host == flow.secondary) {
        share += flow.queueing_share;
        found = true;
      }
    }
    if (!found) link_share.emplace_back(flow.secondary, flow.queueing_share);
  }
  const auto saturated = [&](const hv::Host& host) {
    for (const auto& [h, share] : link_share) {
      if (h == &host) return share > config_.saturation_share;
    }
    return false;
  };
  for (const auto& [host, share] : link_share) {
    if (share <= config_.saturation_share) continue;
    // Hottest flow on this link that is not already moving (ties resolve to
    // the earliest flow, which is protection order upstream).
    const ReplicaFlow* victim = nullptr;
    for (const ReplicaFlow& flow : flows) {
      if (flow.secondary != host || flow.primary == nullptr) continue;
      if (is_planned(flow.domain)) continue;
      if (victim == nullptr || flow.queueing_share > victim->queueing_share) {
        victim = &flow;
      }
    }
    if (victim == nullptr) continue;
    const Expected<hv::Host*> target = ring_.secondary_for(
        victim->domain, *victim->primary, victim->secondary,
        [&](const hv::Host& h) { return load_now(h); }, cap);
    if (!target.ok()) continue;
    if (*target == victim->secondary || !(*target)->alive()) continue;
    if (saturated(**target)) continue;  // moving heat around is not relief
    add_move(*victim, *target, RebalanceMove::Why::kSaturation);
  }
  return plan;
}

}  // namespace here::mgmt
