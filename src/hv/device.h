// Virtual device model interface.
//
// HERE uses a *heterogeneous device model* strategy (§5.2): the primary
// hypervisor exposes Xen PV devices (netfront/blkfront) while the replica
// exposes virtio devices, so the two hosts do not share device-model
// vulnerabilities. Devices serialize their state into a family-tagged blob;
// loading a blob from a different family throws — bridging that gap is the
// device manager + state translator's job.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "hv/disk.h"
#include "simnet/packet.h"

namespace here::hv {

enum class DeviceKind : std::uint8_t { kNet, kBlock, kConsole };
enum class DeviceFamily : std::uint8_t { kXenPv, kVirtio, kEmulated };

[[nodiscard]] constexpr const char* to_string(DeviceFamily f) {
  switch (f) {
    case DeviceFamily::kXenPv: return "xen-pv";
    case DeviceFamily::kVirtio: return "virtio";
    case DeviceFamily::kEmulated: return "emulated";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(DeviceKind k) {
  switch (k) {
    case DeviceKind::kNet: return "net";
    case DeviceKind::kBlock: return "block";
    case DeviceKind::kConsole: return "console";
  }
  return "?";
}

// Serialized device state. Fields are named counters/indices (ring producer/
// consumer positions, feature bits, queue sizes); the layout and field names
// differ per family, which is exactly what the translator must bridge.
struct DeviceStateBlob {
  DeviceFamily family{};
  DeviceKind kind{};
  std::string model_name;
  std::vector<std::pair<std::string, std::uint64_t>> fields;

  [[nodiscard]] std::uint64_t field(std::string_view name) const {
    for (const auto& [k, v] : fields) {
      if (k == name) return v;
    }
    throw std::out_of_range("DeviceStateBlob: no field " + std::string(name));
  }
  [[nodiscard]] bool has_field(std::string_view name) const {
    for (const auto& [k, v] : fields) {
      if (k == name) return true;
    }
    return false;
  }
  void set_field(std::string_view name, std::uint64_t value) {
    for (auto& [k, v] : fields) {
      if (k == name) {
        v = value;
        return;
      }
    }
    fields.emplace_back(std::string(name), value);
  }
  // Approximate wire size when shipped in a checkpoint.
  [[nodiscard]] std::uint64_t wire_bytes() const {
    std::uint64_t b = 64;
    for (const auto& [k, v] : fields) b += k.size() + 8;
    return b;
  }
};

// Exception thrown when a device is asked to load state from an
// incompatible family (e.g. virtio state into a Xen PV device).
class DeviceFamilyMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DeviceModel {
 public:
  virtual ~DeviceModel() = default;

  [[nodiscard]] virtual DeviceKind kind() const = 0;
  [[nodiscard]] virtual DeviceFamily family() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual DeviceStateBlob save() const = 0;
  // Throws DeviceFamilyMismatch if `blob.family != family()`.
  virtual void load(const DeviceStateBlob& blob) = 0;

  // Re-initializes the device to power-on state (used after a failover
  // device switch when the guest agent re-plugs a fresh device).
  virtual void reset() = 0;
};

// Network device: forwards guest transmissions to a host-installed hook
// (which is where the replication device manager interposes its outbound
// buffer) and counts ring activity for state replication.
class NetDevice : public DeviceModel {
 public:
  using TxHook = std::function<void(const net::Packet&)>;

  [[nodiscard]] DeviceKind kind() const final { return DeviceKind::kNet; }

  // `owner` names the object the hook calls back into (nullptr: none), so
  // that object can tell whether the hook is still its own.
  void set_tx_hook(TxHook hook, const void* owner = nullptr) {
    tx_hook_ = std::move(hook);
    tx_hook_owner_ = owner;
  }
  [[nodiscard]] const void* tx_hook_owner() const { return tx_hook_owner_; }

  // Guest -> world. Updates ring state then invokes the host hook.
  virtual void transmit(const net::Packet& packet) = 0;

  // World -> guest. Updates ring state; the VM forwards to the program.
  virtual void receive(const net::Packet& packet) = 0;

 protected:
  void forward_tx(const net::Packet& packet) {
    if (tx_hook_) tx_hook_(packet);
  }

 private:
  TxHook tx_hook_;
  const void* tx_hook_owner_ = nullptr;
};

// Block device: guest writes update ring counters and are forwarded to a
// host-installed hook — the storage backend on an unprotected host, or the
// replication engine's disk mirror on a protected one.
class BlockDevice : public DeviceModel {
 public:
  using WriteHook = std::function<void(const DiskWrite&)>;

  [[nodiscard]] DeviceKind kind() const final { return DeviceKind::kBlock; }

  // `owner` as for NetDevice::set_tx_hook.
  void set_write_hook(WriteHook hook, const void* owner = nullptr) {
    write_hook_ = std::move(hook);
    write_hook_owner_ = owner;
  }
  [[nodiscard]] const void* write_hook_owner() const {
    return write_hook_owner_;
  }

  virtual void submit_write(std::uint64_t sector, std::uint32_t sectors,
                            std::uint64_t stamp = 0) = 0;
  virtual void flush() = 0;

 protected:
  void forward_write(const DiskWrite& write) {
    if (write_hook_) write_hook_(write);
  }

 private:
  WriteHook write_hook_;
  const void* write_hook_owner_ = nullptr;
};

}  // namespace here::hv
