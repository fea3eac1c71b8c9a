#include "hv/hypervisor.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace here::hv {

Hypervisor::Hypervisor(sim::Simulation& simulation, sim::Rng rng)
    : sim_(simulation), rng_(rng) {}

Vm& Hypervisor::create_vm(VmSpec spec) {
  if (!operational()) throw std::runtime_error("hypervisor not operational");
  auto vm = std::make_unique<Vm>(std::move(spec));
  vm->platform().cpuid = default_cpuid();
  configure_vm(*vm);
  vms_.push_back(std::move(vm));
  runtimes_.emplace_back(vms_.back().get(), VmRuntime{});
  Vm& created = *vms_.back();
  connect_disk(created);
  return created;
}

void Hypervisor::connect_disk(Vm& vm) {
  if (BlockDevice* blk = vm.block_device()) {
    VirtualDisk& backing = disk(vm);
    blk->set_write_hook([&backing](const DiskWrite& w) { backing.apply(w); });
  }
}

VirtualDisk& Hypervisor::disk(const Vm& vm) {
  auto& slot = disks_[&vm];
  if (!slot) slot = std::make_unique<VirtualDisk>();
  return *slot;
}

void Hypervisor::destroy_vm(Vm& vm) {
  vm.set_state(VmState::kDestroyed);
  dirty_logs_.drop(vm);
  disks_.erase(&vm);
  sim_.cancel(runtime_of(vm).tick_event);
  std::erase_if(runtimes_, [&](const auto& p) { return p.first == &vm; });
  std::erase_if(vms_, [&](const auto& p) { return p.get() == &vm; });
}

Hypervisor::VmRuntime& Hypervisor::runtime_of(const Vm& vm) {
  for (auto& [ptr, rt] : runtimes_) {
    if (ptr == &vm) return rt;
  }
  throw std::invalid_argument("VM not owned by this hypervisor");
}

void Hypervisor::start(Vm& vm) {
  if (!operational()) throw std::runtime_error("hypervisor not operational");
  if (vm.state() != VmState::kCreated && vm.state() != VmState::kPaused) {
    throw std::logic_error("start: VM not startable");
  }
  vm.set_state(VmState::kRunning);
  schedule_tick(vm);
}

void Hypervisor::pause(Vm& vm) {
  if (vm.state() != VmState::kRunning) return;
  vm.set_state(VmState::kPaused);
  sim_.cancel(runtime_of(vm).tick_event);
}

void Hypervisor::resume(Vm& vm) {
  if (vm.state() != VmState::kPaused) return;
  if (!operational()) throw std::runtime_error("hypervisor not operational");
  vm.set_state(VmState::kRunning);
  schedule_tick(vm);
}

void Hypervisor::schedule_tick(Vm& vm) {
  VmRuntime& rt = runtime_of(vm);
  rt.tick_event = sim_.schedule_after(
      tick_interval, [this, vmp = &vm] { on_tick(vmp); }, "vm-tick");
}

void Hypervisor::on_tick(Vm* vm) {
  if (!operational()) return;  // crash/hang freezes all guests
  if (vm->state() != VmState::kRunning) return;
  // Under resource starvation the guest only gets a fraction of its quantum.
  sim::Duration slice = tick_interval;
  if (fault_ == FaultKind::kStarvation) slice = slice / 10;
  vm->run_slice(sim_.now(), slice, rng_);
  // The program may have panicked the guest during the slice.
  if (vm->state() == VmState::kRunning) schedule_tick(*vm);
}

std::span<PmlRing> Hypervisor::enable_pml_rings(Vm&) {
  throw std::logic_error(std::string(name()) +
                         " does not support per-vCPU PML rings");
}

void Hypervisor::disable_pml_rings(Vm&) {}

std::span<PmlRing> Hypervisor::pml_rings(Vm&) { return {}; }

void Hypervisor::inject_fault(FaultKind fault) {
  const bool was_operational = operational();
  fault_ = fault;
  if (!operational()) {
    for (auto& vm : vms_) {
      sim_.cancel(runtime_of(*vm).tick_event);
    }
  } else if (!was_operational) {
    // Recovery: guests that were running when the fault hit lost their tick
    // events; without rescheduling they would stay frozen forever even
    // though their state says kRunning.
    for (auto& vm : vms_) {
      if (vm->state() == VmState::kRunning) schedule_tick(*vm);
    }
  }
}

}  // namespace here::hv
