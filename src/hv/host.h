// A physical host: one hypervisor plus its two network endpoints (guest
// Ethernet and replication interconnect), resource accounting for §8.7, and
// host-level fault injection.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hv/hypervisor.h"
#include "sim/hardware_profile.h"
#include "simnet/fabric.h"

namespace here::hv {

class Host {
 public:
  using PacketHandler = std::function<void(const net::Packet&)>;

  // Registers eth/interconnect endpoints named "<name>.eth"/"<name>.ic".
  Host(std::string name, net::Fabric& fabric,
       std::unique_ptr<Hypervisor> hypervisor);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Hypervisor& hypervisor() { return *hypervisor_; }
  [[nodiscard]] const Hypervisor& hypervisor() const { return *hypervisor_; }
  [[nodiscard]] net::Fabric& fabric() { return fabric_; }

  [[nodiscard]] net::NodeId eth_node() const { return eth_node_; }
  [[nodiscard]] net::NodeId ic_node() const { return ic_node_; }

  // Packet dispatch: replication engines install these (several engines may
  // share a host pair, each protecting one VM, so handlers multicast). A
  // crashed or hung host never invokes them. Every handler and listener is
  // registered under an `owner` (the object its callback captures), and
  // remove_handlers(owner) drops all of them; an owner calls it before it is
  // destroyed. A callback must not remove handlers while it is dispatched.
  void add_eth_handler(const void* owner, PacketHandler handler) {
    eth_handlers_.push_back({owner, std::move(handler)});
  }
  void add_ic_handler(const void* owner, PacketHandler handler) {
    ic_handlers_.push_back({owner, std::move(handler)});
  }
  void remove_handlers(const void* owner);

  // Injects a host-level DoS outcome. kCrash also takes the host's network
  // endpoints down (the machine is gone); kHang leaves links up but the host
  // stops responding; kStarvation degrades guest scheduling.
  void inject_fault(FaultKind fault);
  [[nodiscard]] FaultKind fault() const { return hypervisor_->fault(); }
  [[nodiscard]] bool alive() const { return hypervisor_->operational(); }

  // Recovery (reboot/repair) — restores an operational hypervisor and brings
  // the network endpoints back up. Guests that were running when the fault
  // hit resume executing (their memory survived the outage in this model —
  // think suspend-to-RAM rather than a cold reboot).
  void repair();

  // --- ReHype-style microreboot-in-place --------------------------------------
  //
  // Unlike repair() (operator-driven, instantaneous in model time), a
  // microreboot restarts the failed hypervisor *under* its guests: VM memory
  // and device state are preserved in place, vCPUs stay paused for the
  // reboot window, and the host comes back `window` later with the same
  // guests running. While rebooting the host is still dead to the outside
  // world — endpoints stay down, packets are dropped — which is exactly what
  // lets recovery race an in-flight failover on the other side.

  enum class RecoveryState : std::uint8_t {
    kOperational,     // healthy (or degraded-but-responsive, e.g. starvation)
    kFailed,          // crashed/hung; only repair() or begin_microreboot() exit
    kMicrorebooting,  // reboot window open; VMs paused-but-preserved
  };

  // Begins the microreboot window on a failed host. Returns false (no-op)
  // unless the host is currently kFailed. Completion fires `window` later:
  // the hypervisor fault clears, endpoints come back up, preserved VMs
  // resume, and recovery listeners fire with microreboot=true.
  bool begin_microreboot(sim::Duration window);

  [[nodiscard]] RecoveryState recovery_state() const { return recovery_state_; }
  [[nodiscard]] std::uint64_t microreboots() const { return microreboots_; }

  // Called on every recovery completion; the flag distinguishes a completed
  // microreboot (true) from a fail-stop repair() (false). Replication
  // engines use this to learn "the primary is back" and start the
  // resume-probe arbitration instead of silently resuming output commit.
  using RecoveryListener = std::function<void(bool /*microreboot*/)>;
  void add_recovery_listener(const void* owner, RecoveryListener listener) {
    recovery_listeners_.push_back({owner, std::move(listener)});
  }

  // Called when a crash/hang lands (kOperational -> kFailed only, not for
  // repeated faults on an already-failed host). Replication engines use this
  // to tear down work aimed at the dead host — e.g. an in-flight seed whose
  // target just vanished — instead of discovering it by timeout.
  using FailureListener = std::function<void(FaultKind)>;
  void add_failure_listener(const void* owner, FailureListener listener) {
    failure_listeners_.push_back({owner, std::move(listener)});
  }

  // --- §8.7 resource accounting ---------------------------------------------

  // CPU-seconds consumed by host-side replication threads.
  void account_replication_cpu(sim::Duration d) { replication_cpu_ += d; }
  [[nodiscard]] sim::Duration replication_cpu() const { return replication_cpu_; }
  // Peak resident bytes of replication buffers.
  void account_replication_memory(std::uint64_t bytes) {
    replication_mem_peak_ = std::max(replication_mem_peak_, bytes);
  }
  [[nodiscard]] std::uint64_t replication_memory_peak() const {
    return replication_mem_peak_;
  }

 private:
  template <typename Callback>
  struct Owned {
    const void* owner;
    Callback callback;
  };

  void on_packet(const net::Packet& packet,
                 const std::vector<Owned<PacketHandler>>& handlers);
  void complete_microreboot();
  void notify_recovered(bool microreboot);

  std::string name_;
  net::Fabric& fabric_;
  std::unique_ptr<Hypervisor> hypervisor_;
  net::NodeId eth_node_;
  net::NodeId ic_node_;
  std::vector<Owned<PacketHandler>> eth_handlers_;
  std::vector<Owned<PacketHandler>> ic_handlers_;
  sim::Duration replication_cpu_{0};
  std::uint64_t replication_mem_peak_ = 0;

  RecoveryState recovery_state_ = RecoveryState::kOperational;
  sim::EventId microreboot_event_;
  std::vector<Vm*> microreboot_preserved_;  // VMs paused for the reboot window
  std::uint64_t microreboots_ = 0;
  std::vector<Owned<RecoveryListener>> recovery_listeners_;
  std::vector<Owned<FailureListener>> failure_listeners_;
};

}  // namespace here::hv
