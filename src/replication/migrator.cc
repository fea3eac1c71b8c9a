#include "replication/migrator.h"

#include <stdexcept>

#include "common/log.h"
#include "replication/encoder.h"
#include "xlate/translator.h"

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
  std::unique_ptr<hv::SavedMachineState> saved =
      source_.hypervisor().save_machine_state(*vm_);
  const std::uint64_t wire_bytes = saved->wire_bytes();

  std::unique_ptr<hv::SavedMachineState> to_load;
  sim::Duration translate_cost{};
  if (destination_.hypervisor().kind() != source_.hypervisor().kind()) {
    to_load =
        xlate::translate_machine_state(*saved, destination_.hypervisor());
    translate_cost = model_.config().state_translate_per_vcpu *
                     static_cast<std::int64_t>(vm_->cpus().size());
    result_.translated = true;
  } else {
    to_load = std::move(saved);
  }

  const hv::HvCostProfile& cost = destination_.hypervisor().cost_profile();
  const sim::Duration d = model_.wire_time(wire_bytes) +
                          translate_cost + cost.create_vm_base +
                          cost.per_device_setup * 3 + cost.state_load +
                          cost.vm_resume;

  sim_.schedule_after(d, [this, to_load = std::shared_ptr<hv::SavedMachineState>(
                                    std::move(to_load))] {
    hv::Vm& dest = destination_.hypervisor().create_vm(staging_->spec());
    for (common::Gfn g = 0; g < staging_->memory().pages(); ++g) {
      // A fresh VM's memory is already zeroed; installing an all-zero page
      // would be a no-op, so elide it (same trick as the wire encoder's
      // zero-page elision, applied to the activation memcpy loop).
      const auto page = staging_->memory().page(g);
      if (is_zero_page(page)) continue;
      dest.memory().install_page(g, page);
    }
    destination_.hypervisor().load_machine_state(dest, *to_load);
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
