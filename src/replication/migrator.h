// One-shot live VM migration (the Fig. 6 experiment): the same seeding
// machinery as replication, but instead of entering the continuous
// checkpoint phase, the VM is activated on the destination host — possibly
// under a different hypervisor, in which case the machine state is run
// through the cross-hypervisor translator. State staging and activation are
// the ones failover uses (staging.h), so the destination carries the
// source's memory, disk, machine state and program.
#pragma once

#include <functional>
#include <memory>

#include "common/thread_pool.h"
#include "hv/host.h"
#include "replication/seeder.h"
#include "replication/staging.h"
#include "replication/time_model.h"

namespace here::rep {

struct MigrationResult {
  SeedResult seed;
  sim::Duration total_time{};   // start -> destination VM running
  sim::Duration downtime{};     // source paused -> destination running
  bool translated = false;      // crossed a hypervisor boundary
};

class Migrator {
 public:
  using DoneFn = std::function<void(const MigrationResult&)>;

  Migrator(sim::Simulation& simulation, const TimeModel& model,
           common::ThreadPool& pool, hv::Host& source, hv::Host& destination,
           SeedConfig seed_config);

  // Migrates `vm` (owned by the source host's hypervisor; any kind). On
  // completion the source VM is destroyed and the destination VM is running.
  void migrate(hv::Vm& vm, DoneFn done);

  [[nodiscard]] hv::Vm* destination_vm() { return dest_vm_; }

 private:
  void activate_on_destination();

  sim::Simulation& sim_;
  const TimeModel& model_;
  common::ThreadPool& pool_;
  hv::Host& source_;
  hv::Host& destination_;
  SeedConfig seed_config_;

  hv::Vm* vm_ = nullptr;
  hv::Vm* dest_vm_ = nullptr;
  std::unique_ptr<ReplicaStaging> staging_;
  std::unique_ptr<hv::SavedMachineState> state_;  // staged at stop-and-copy
  std::unique_ptr<hv::GuestProgram> program_;
  std::unique_ptr<Seeder> seeder_;
  DoneFn done_;
  sim::TimePoint started_at_{};
  MigrationResult result_;
};

}  // namespace here::rep
