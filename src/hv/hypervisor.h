// Hypervisor interface implemented by xensim and kvmsim.
//
// The base class owns VM lifecycle and the guest execution loop (periodic
// run_slice events on the virtual clock); subclasses provide device models,
// their own machine-state serialization format and their cost profile.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "hv/dirty_logs.h"
#include "hv/disk.h"
#include "hv/guest_cpu.h"
#include "hv/types.h"
#include "hv/vm.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace here::hv {

// Type-erased, format-tagged machine state (vCPU contexts + device states +
// platform info — everything except memory pages, which travel through the
// replication stream). Concrete types live in xensim/kvmsim.
class SavedMachineState {
 public:
  virtual ~SavedMachineState() = default;
  [[nodiscard]] virtual HvKind format() const = 0;
  // Serialized size when shipped over the interconnect.
  [[nodiscard]] virtual std::uint64_t wire_bytes() const = 0;
};

// Thrown when load_machine_state() receives a foreign format — the failure
// mode heterogeneous replication must bridge via the state translator.
class StateFormatMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Per-implementation cost profile; the numbers differ between the Xen and
// KVM models (kvmtool's fast userspace resume is what gives Fig. 7 its
// millisecond failover times).
struct HvCostProfile {
  sim::Duration vm_pause{};           // pause one VM (all vCPUs)
  sim::Duration vm_resume{};          // make a paused VM runnable
  sim::Duration create_vm_base{};     // userspace VM construction
  sim::Duration per_device_setup{};   // plug one device model
  sim::Duration state_load{};         // load vCPU+platform state

  // Building a VM around an already-resident image: process setup, three
  // device models (net, block, console), state load and resume. No memory
  // copy, which is why activation time is flat in VM size (Fig. 7).
  [[nodiscard]] sim::Duration activation() const {
    return create_vm_base + per_device_setup * 3 + state_load + vm_resume;
  }
};

class Hypervisor {
 public:
  Hypervisor(sim::Simulation& simulation, sim::Rng rng);
  virtual ~Hypervisor() = default;

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  [[nodiscard]] virtual HvKind kind() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  // The software components this stack is built from; exploits hit any host
  // whose stack contains the vulnerable component (§8.2).
  [[nodiscard]] virtual std::vector<SoftwareComponent> components() const = 0;
  [[nodiscard]] bool uses_component(SoftwareComponent component) const {
    for (const SoftwareComponent c : components()) {
      if (c == component) return true;
    }
    return false;
  }
  // CPUID features this implementation exposes to guests by default.
  [[nodiscard]] virtual CpuidPolicy default_cpuid() const = 0;
  [[nodiscard]] virtual HvCostProfile cost_profile() const = 0;

  // --- VM lifecycle ----------------------------------------------------------

  // Creates and configures a VM (devices installed by the subclass). The
  // hypervisor owns the VM.
  Vm& create_vm(VmSpec spec);
  virtual void destroy_vm(Vm& vm);

  void start(Vm& vm);    // kCreated or kPaused -> kRunning; begins ticking
  virtual void pause(Vm& vm);    // kRunning -> kPaused; stops ticking
  virtual void resume(Vm& vm);   // kPaused -> kRunning

  [[nodiscard]] const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }

  // Pointer-identity liveness check: true while this hypervisor still owns
  // `vm`. Lets holders of borrowed Vm pointers (e.g. an older replication
  // generation whose replica twin a newer generation demoted and destroyed)
  // validate before dereferencing instead of dangling.
  [[nodiscard]] bool owns(const Vm& vm) const {
    for (const auto& owned : vms_) {
      if (owned.get() == &vm) return true;
    }
    return false;
  }

  // --- Dirty logging ----------------------------------------------------------
  //
  // Every implementation offers a global dirty bitmap (Xen's shadow-paging
  // log-dirty mode; KVM's KVM_GET_DIRTY_LOG). Per-vCPU PML rings are HERE's
  // Xen kernel extension and are capability-gated.

  common::DirtyBitmap& enable_dirty_bitmap(Vm& vm) {
    return dirty_logs_.enable_bitmap(vm);
  }
  void disable_dirty_bitmap(Vm& vm) { dirty_logs_.disable_bitmap(vm); }
  [[nodiscard]] common::DirtyBitmap* dirty_bitmap(Vm& vm) {
    return dirty_logs_.bitmap(vm);
  }
  [[nodiscard]] common::DirtyBitmap& scratch_bitmap(Vm& vm) {
    return dirty_logs_.scratch_bitmap(vm);
  }

  // --- Storage backend --------------------------------------------------------
  //
  // Each VM gets a host-local virtual disk; create_vm wires the VM's block
  // device to it (connect_disk). The replication engine re-wraps that hook
  // to mirror writes to the replica (Remus-style storage replication) and
  // reconnects the plain backend when it goes away.
  [[nodiscard]] VirtualDisk& disk(const Vm& vm);
  void connect_disk(Vm& vm);

  [[nodiscard]] virtual bool supports_pml_rings() const { return false; }
  // Throws std::logic_error unless supports_pml_rings().
  virtual std::span<PmlRing> enable_pml_rings(Vm& vm);
  virtual void disable_pml_rings(Vm& vm);
  [[nodiscard]] virtual std::span<PmlRing> pml_rings(Vm& vm);

  // --- Machine state (format is implementation-specific) ---------------------

  [[nodiscard]] virtual std::unique_ptr<SavedMachineState> save_machine_state(
      const Vm& vm) const = 0;
  // Throws StateFormatMismatch when handed a foreign format.
  virtual void load_machine_state(Vm& vm, const SavedMachineState& state) const = 0;

  // --- Fault injection (DoS outcomes, §8.2) ----------------------------------

  void inject_fault(FaultKind fault);
  [[nodiscard]] FaultKind fault() const { return fault_; }
  // False once crashed or hung: no VM execution, no packet processing.
  [[nodiscard]] bool operational() const {
    return fault_ != FaultKind::kCrash && fault_ != FaultKind::kHang;
  }

  // --- Misc -------------------------------------------------------------------

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const sim::Simulation& simulation() const { return sim_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  // Guest scheduling quantum. Every running VM executes a run_slice of this
  // length per tick (shrunk under starvation).
  sim::Duration tick_interval = sim::from_millis(10);

 protected:
  // Installs this implementation's device models on a fresh VM.
  virtual void configure_vm(Vm& vm) = 0;

  DirtyLogFacility dirty_logs_;
  std::map<const Vm*, std::unique_ptr<VirtualDisk>> disks_;

 private:
  void schedule_tick(Vm& vm);
  void on_tick(Vm* vm);

  struct VmRuntime {
    sim::EventId tick_event;
  };
  VmRuntime& runtime_of(const Vm& vm);

  sim::Simulation& sim_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<std::pair<const Vm*, VmRuntime>> runtimes_;
  FaultKind fault_ = FaultKind::kNone;
};

}  // namespace here::hv
