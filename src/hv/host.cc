#include "hv/host.h"

namespace here::hv {

Host::Host(std::string name, net::Fabric& fabric,
           std::unique_ptr<Hypervisor> hypervisor)
    : name_(std::move(name)), fabric_(fabric), hypervisor_(std::move(hypervisor)) {
  eth_node_ = fabric_.add_node(
      name_ + ".eth",
      [this](const net::Packet& p) { on_packet(p, eth_handlers_); });
  ic_node_ = fabric_.add_node(
      name_ + ".ic", [this](const net::Packet& p) { on_packet(p, ic_handlers_); });
}

void Host::on_packet(const net::Packet& packet,
                     const std::vector<Owned<PacketHandler>>& handlers) {
  if (!alive()) return;  // hung host: links up, nobody home
  for (const auto& handler : handlers) {
    if (handler.callback) handler.callback(packet);
  }
}

void Host::remove_handlers(const void* owner) {
  const auto owned_by = [owner](const auto& entry) {
    return entry.owner == owner;
  };
  std::erase_if(eth_handlers_, owned_by);
  std::erase_if(ic_handlers_, owned_by);
  std::erase_if(recovery_listeners_, owned_by);
  std::erase_if(failure_listeners_, owned_by);
}

void Host::inject_fault(FaultKind fault) {
  hypervisor_->inject_fault(fault);
  const bool was_operational = recovery_state_ == RecoveryState::kOperational;
  if (fault == FaultKind::kCrash || fault == FaultKind::kHang) {
    // A fault landing mid-microreboot aborts the reboot: back to kFailed
    // with the preserved VMs still paused (a later microreboot or repair
    // picks them up).
    if (microreboot_event_.valid()) {
      hypervisor_->simulation().cancel(microreboot_event_);
      microreboot_event_ = sim::EventId{};
    }
    recovery_state_ = RecoveryState::kFailed;
  }
  if (fault == FaultKind::kCrash) {
    fabric_.set_node_down(eth_node_, true);
    fabric_.set_node_down(ic_node_, true);
  }
  if (was_operational && recovery_state_ == RecoveryState::kFailed) {
    for (const auto& listener : failure_listeners_) listener.callback(fault);
  }
}

void Host::repair() {
  if (microreboot_event_.valid()) {
    hypervisor_->simulation().cancel(microreboot_event_);
    microreboot_event_ = sim::EventId{};
  }
  hypervisor_->inject_fault(FaultKind::kNone);
  fabric_.set_node_down(eth_node_, false);
  fabric_.set_node_down(ic_node_, false);
  // VMs paused by an aborted microreboot window would otherwise stay paused
  // forever: inject_fault(kNone) only re-arms ticks for kRunning guests.
  for (Vm* vm : microreboot_preserved_) {
    if (vm->state() == VmState::kPaused) hypervisor_->resume(*vm);
  }
  microreboot_preserved_.clear();
  recovery_state_ = RecoveryState::kOperational;
  notify_recovered(/*microreboot=*/false);
}

bool Host::begin_microreboot(sim::Duration window) {
  if (recovery_state_ != RecoveryState::kFailed) return false;
  recovery_state_ = RecoveryState::kMicrorebooting;
  // Preserve the guests: pause every running VM in place. pause() works on
  // a non-operational hypervisor (the model's "memory survives" property),
  // so this is legal while the host is still crashed.
  for (const auto& vm : hypervisor_->vms()) {
    if (vm->state() == VmState::kRunning) {
      hypervisor_->pause(*vm);
      microreboot_preserved_.push_back(vm.get());
    }
  }
  microreboot_event_ = hypervisor_->simulation().schedule_after(
      window, [this] { complete_microreboot(); }, name_ + ".microreboot");
  return true;
}

void Host::complete_microreboot() {
  microreboot_event_ = sim::EventId{};
  // Order matters: resume() throws on a non-operational hypervisor, so the
  // fault must clear before the preserved guests restart.
  hypervisor_->inject_fault(FaultKind::kNone);
  fabric_.set_node_down(eth_node_, false);
  fabric_.set_node_down(ic_node_, false);
  for (Vm* vm : microreboot_preserved_) {
    if (vm->state() == VmState::kPaused) hypervisor_->resume(*vm);
  }
  microreboot_preserved_.clear();
  recovery_state_ = RecoveryState::kOperational;
  ++microreboots_;
  notify_recovered(/*microreboot=*/true);
}

void Host::notify_recovered(bool microreboot) {
  for (const auto& listener : recovery_listeners_) {
    if (listener.callback) listener.callback(microreboot);
  }
}

}  // namespace here::hv
