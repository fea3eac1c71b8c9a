#include "replication/migrator_pool.h"

#include <algorithm>
#include <stdexcept>

namespace here::rep {

MigratorPool::MigratorPool(sim::Simulation& simulation, std::uint32_t workers)
    : sim_(simulation), pool_(std::max<std::uint32_t>(1, workers)) {}

MigratorPool::ClientId MigratorPool::register_client(
    std::string tag, std::uint32_t requested_threads, double weight) {
  std::lock_guard lock(mu_);
  Client client;
  client.stats.tag = std::move(tag);
  client.stats.weight = weight > 0.0 ? weight : 1.0;
  client.stats.requested_threads = std::max<std::uint32_t>(1, requested_threads);
  clients_.push_back(std::move(client));
  return static_cast<ClientId>(clients_.size() - 1);
}

MigratorPool::Grant MigratorPool::begin_burst(ClientId client) {
  std::lock_guard lock(mu_);
  if (client >= clients_.size()) {
    throw std::invalid_argument("MigratorPool: unknown client id");
  }
  const sim::TimePoint now = sim_.now();
  Client& self = clients_[client];

  // Fair share among the bursts whose busy windows cover this instant.
  double weight_sum = self.stats.weight;
  std::uint32_t contending = 1;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (i == client) continue;
    if (clients_[i].busy_until > now) {
      weight_sum += clients_[i].stats.weight;
      ++contending;
    }
  }
  const double share = static_cast<double>(pool_.size()) *
                       self.stats.weight / weight_sum;
  Grant grant;
  grant.threads = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(share), 1, self.stats.requested_threads);
  grant.contending = contending;

  ++self.stats.bursts;
  if (contending > 1) ++self.stats.contended_bursts;
  self.stats.granted_thread_sum += grant.threads;
  if (self.stats.min_grant == 0 || grant.threads < self.stats.min_grant) {
    self.stats.min_grant = grant.threads;
  }
  peak_contending_ = std::max(peak_contending_, contending);

  if (m_bursts_ != nullptr) {
    m_bursts_->add(1);
    if (contending > 1) m_contended_->add(1);
    m_grant_threads_->add(static_cast<double>(grant.threads));
  }
  return grant;
}

void MigratorPool::commit_burst(ClientId client, sim::Duration busy_for) {
  std::lock_guard lock(mu_);
  if (client >= clients_.size()) {
    throw std::invalid_argument("MigratorPool: unknown client id");
  }
  if (busy_for < sim::Duration::zero()) busy_for = sim::Duration::zero();
  Client& self = clients_[client];
  self.busy_until = std::max(self.busy_until, sim_.now() + busy_for);
  self.stats.last_burst_end = self.busy_until;
}

void MigratorPool::run_shards(ClientId client, std::uint32_t shards,
                              const std::function<void(std::uint32_t)>& fn,
                              WorkKind kind) {
  if (shards == 0) return;
  // The shard accounting is touched from the worker threads; everything else
  // about the shard body belongs to the caller. mu_ (rank 50) is never held
  // across the submit into the pool queue (rank 100).
  pool_.parallel_for(shards, [this, client, kind, &fn](std::size_t shard) {
    fn(static_cast<std::uint32_t>(shard));
    std::lock_guard lock(mu_);
    if (client < clients_.size()) {
      ClientStats& stats = clients_[client].stats;
      ++stats.shards_run;
      if (kind == WorkKind::kEncode) ++stats.encode_shards_run;
      if (kind == WorkKind::kCommit) ++stats.commit_shards_run;
    }
  });
}

MigratorPool::ClientStats MigratorPool::client_stats(ClientId client) const {
  std::lock_guard lock(mu_);
  if (client >= clients_.size()) {
    throw std::invalid_argument("MigratorPool: unknown client id");
  }
  return clients_[client].stats;
}

void MigratorPool::attach_obs(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  m_bursts_ = &metrics->counter("pool.bursts");
  m_contended_ = &metrics->counter("pool.contended_bursts");
  m_grant_threads_ = &metrics->histogram("pool.grant_threads",
                                         {1, 2, 3, 4, 6, 8, 12, 16});
}

}  // namespace here::rep
