#include "replication/migrator.h"

#include <stdexcept>

#include "common/log.h"

namespace here::rep {

Migrator::Migrator(sim::Simulation& simulation, const TimeModel& model,
                   common::ThreadPool& pool, hv::Host& source,
                   hv::Host& destination, SeedConfig seed_config)
    : sim_(simulation),
      model_(model),
      pool_(pool),
      source_(source),
      destination_(destination),
      seed_config_(seed_config) {
  // PML-based multithreaded seeding needs the source's per-vCPU rings;
  // other sources fall back to bitmap seeding.
  if (seed_config_.mode == SeedMode::kHereMultithreaded &&
      !source_.hypervisor().supports_pml_rings()) {
    seed_config_.mode = SeedMode::kXenDefault;
  }
}

void Migrator::migrate(hv::Vm& vm, DoneFn done) {
  if (vm_ != nullptr) throw std::logic_error("migration already in progress");
  vm_ = &vm;
  done_ = std::move(done);
  started_at_ = sim_.now();

  if (source_.hypervisor().kind() != destination_.hypervisor().kind()) {
    // Heterogeneous target: constrain CPUID before the state is captured.
    vm.platform().cpuid = source_.hypervisor().default_cpuid().intersect(
        destination_.hypervisor().default_cpuid());
  }

  staging_ = std::make_unique<ReplicaStaging>(vm.spec(), 1);
  seeder_ = std::make_unique<Seeder>(sim_, model_, pool_,
                                     source_.hypervisor(), vm, *staging_,
                                     seed_config_);
  seeder_->start([this](const SeedResult& result) {
    result_.seed = result;
    activate_on_destination();
  });
}

void Migrator::activate_on_destination() {
  // Stop-and-copy: the source is paused and the staged memory is complete.
  // Machine state crosses (translated for a foreign destination); the disk
  // image and program travel with it, free in modelled time as for a seed.
  sim::Duration state_cost{};
  state_ = stage_machine_state(model_, source_.hypervisor(), *vm_,
                               destination_.hypervisor(), state_cost);
  result_.translated =
      destination_.hypervisor().kind() != source_.hypervisor().kind();
  staging_->seed_disk(source_.hypervisor().disk(*vm_));
  if (hv::GuestProgram* program = vm_->program()) program_ = program->clone();

  const sim::Duration d =
      state_cost + destination_.hypervisor().cost_profile().activation();
  sim_.schedule_after(d, [this] {
    hv::Vm& dest = activate_staged_image(destination_.hypervisor(), *staging_,
                                         *state_, std::move(program_));
    destination_.hypervisor().start(dest);
    dest_vm_ = &dest;

    // Retire the source VM.
    source_.hypervisor().destroy_vm(*vm_);
    vm_ = nullptr;

    result_.total_time = sim_.now() - started_at_;
    result_.downtime = result_.seed.stop_copy_time + (sim_.now() - started_at_ -
                       result_.seed.total_time);
    HERE_LOG(kInfo, "migration done in %s (downtime %s)",
             sim::format_duration(result_.total_time).c_str(),
             sim::format_duration(result_.downtime).c_str());
    if (done_) done_(result_);
  }, "migrate-activate");
}

}  // namespace here::rep
