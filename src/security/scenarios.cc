#include "security/scenarios.h"

#include "replication/detectors.h"
#include "replication/testbed.h"
#include "security/exploit.h"
#include "workload/protocol.h"
#include "workload/synthetic.h"

namespace here::sec {
namespace {

using rep::EngineMode;
using rep::Testbed;
using rep::TestbedConfig;

// A guest program that self-destructs ("fork bomb") once it has executed
// `bomb_after` of guest CPU time. The bomb travels with the program's
// replicated state: a replica resumed from any checkpoint will re-arm and
// re-fire it — the mechanical reason Table 2 marks guest-originated guest
// failures as not covered.
class SelfCrashProgram final : public hv::GuestProgram {
 public:
  explicit SelfCrashProgram(sim::Duration bomb_after)
      : inner_(wl::memory_microbench(10)), bomb_after_(bomb_after) {}

  void start(hv::GuestEnv& env) override { inner_.start(env); }

  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    inner_.tick(env, dt);
    elapsed_ += dt;
    if (elapsed_ >= bomb_after_) env.panic_guest();
  }

  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<SelfCrashProgram>(*this);
  }

 private:
  wl::SyntheticProgram inner_;
  sim::Duration bomb_after_;
  sim::Duration elapsed_{};
};

// A guest that crashes when it receives a malformed ("poison") packet.
// Inbound traffic is consumed, not replicated, so a replica rolled back to
// the last checkpoint never sees the poison again.
class PoisonableProgram final : public hv::GuestProgram {
 public:
  static constexpr std::uint32_t kPoisonKind = 0xdead;

  PoisonableProgram() : inner_(wl::memory_microbench(10)) {}

  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override { inner_.tick(env, dt); }

  void on_packet(hv::GuestEnv& env, const net::Packet& packet) override {
    if (packet.kind == kPoisonKind) env.panic_guest();
  }

  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<PoisonableProgram>(*this);
  }

 private:
  wl::SyntheticProgram inner_;
};

TestbedConfig scenario_config(std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  config.vm_spec = hv::make_vm_spec("protected", 2, 64ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.period.t_max = sim::from_seconds(1);
  config.engine.period.target_degradation = 0.0;  // fixed 1 s checkpoints
  config.engine.checkpoint_threads = 2;
  return config;
}

// Runs until the engine failed over and the active VM has been running
// stably for a grace period. Returns whether the service survived.
bool service_survives(Testbed& bed) {
  bed.run_until([&] { return bed.engine().failed_over(); },
                sim::from_seconds(30));
  if (!bed.engine().failed_over()) return false;
  bed.simulation().run_for(sim::from_seconds(5));
  return bed.engine().service_available() &&
         bed.engine().active_vm()->state() == hv::VmState::kRunning;
}

Exploit xen_dos_exploit(hv::FaultKind outcome, Privilege priv) {
  Exploit exploit;
  exploit.cve_id = "CVE-ZERO-DAY";
  exploit.vulnerable_kind = hv::HvKind::kXen;
  exploit.outcome = outcome;
  exploit.required_privilege = priv;
  return exploit;
}

// --- Host-failure variants -------------------------------------------------------

bool host_failure_covered(DosSource source, std::uint64_t seed) {
  Testbed bed(scenario_config(seed));
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(4));  // a few checkpoints

  switch (source) {
    case DosSource::kAccident:
      bed.primary().inject_fault(hv::FaultKind::kCrash);  // power loss
      break;
    case DosSource::kGuestUser: {
      // Zero-day DoS launched from an unprivileged guest process.
      const Exploit exploit =
          xen_dos_exploit(hv::FaultKind::kCrash, Privilege::kGuestUser);
      launch_exploit(exploit, bed.primary());
      break;
    }
    case DosSource::kGuestKernel: {
      const Exploit exploit =
          xen_dos_exploit(hv::FaultKind::kHang, Privilege::kGuestKernel);
      launch_exploit(exploit, bed.primary());
      break;
    }
    case DosSource::kOtherGuest: {
      // A co-located malicious guest exploits the shared hypervisor.
      bed.primary().hypervisor().create_vm(
          hv::make_vm_spec("attacker", 1, 16ULL << 20));
      const Exploit exploit =
          xen_dos_exploit(hv::FaultKind::kCrash, Privilege::kGuestKernel);
      launch_exploit(exploit, bed.primary());
      break;
    }
    case DosSource::kExternalService: {
      const Exploit exploit =
          xen_dos_exploit(hv::FaultKind::kCrash, Privilege::kGuestUser);
      launch_exploit(exploit, bed.primary());
      break;
    }
  }

  const bool survived = service_survives(bed);

  // Software diversity: the same exploit is useless against the replica's
  // hypervisor.
  if (survived && source != DosSource::kAccident) {
    const Exploit retry =
        xen_dos_exploit(hv::FaultKind::kCrash, Privilege::kGuestUser);
    const ExploitResult second = launch_exploit(retry, bed.secondary());
    if (second.effect != ExploitEffect::kNoEffect) return false;
    bed.simulation().run_for(sim::from_seconds(2));
    return bed.engine().service_available();
  }
  return survived;
}

// --- Guest-failure variants --------------------------------------------------------

bool guest_failure_covered(DosSource source, std::uint64_t seed) {
  TestbedConfig config = scenario_config(seed);

  switch (source) {
    case DosSource::kAccident: {
      // Host-environment-induced guest crash (e.g. bit flip): the cause is
      // not part of guest state, so the rolled-back replica keeps running.
      Testbed bed(config);
      hv::Vm& vm = bed.create_vm(
          std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
      bed.protect(vm);
      bed.run_until_seeded();
      bed.engine().add_detector(std::make_unique<rep::GuestCrashDetector>(vm));
      bed.simulation().run_for(sim::from_seconds(4));
      vm.panic();  // environment-induced; the watchdog detector notices
      return service_survives(bed);
    }
    case DosSource::kGuestUser:
    case DosSource::kGuestKernel: {
      // A fork-bomb-style self-DoS: the bomb is replicated guest state, so
      // the replica re-crashes — HERE cannot cover this (Table 2: "No").
      Testbed bed(config);
      hv::Vm& vm = bed.create_vm(
          std::make_unique<SelfCrashProgram>(sim::from_seconds(8)));
      bed.protect(vm);
      bed.engine().add_detector(std::make_unique<rep::GuestCrashDetector>(vm));
      bed.run_until_seeded();
      // The failover demotes the live primary, destroying `vm`.
      bed.run_until([&] { return bed.engine().failed_over(); },
                    sim::from_seconds(90));
      // Let the replica run: it will reach the bomb again.
      hv::Vm* replica = bed.engine().replica_vm();
      if (replica == nullptr) return false;
      bed.run_until(
          [&] { return replica->state() == hv::VmState::kCrashed; },
          sim::from_seconds(60));
      return replica->state() == hv::VmState::kRunning;  // false: re-crashed
    }
    case DosSource::kOtherGuest: {
      // Another guest starves the host, stalling the protected guest; a
      // detector fails over to the clean host where the attacker is absent.
      Testbed bed(config);
      hv::Vm& vm = bed.create_vm(
          std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
      bed.protect(vm);
      bed.run_until_seeded();
      bed.engine().add_detector(std::make_unique<rep::StarvationDetector>(vm));
      bed.simulation().run_for(sim::from_seconds(4));
      bed.primary().hypervisor().create_vm(
          hv::make_vm_spec("attacker", 1, 16ULL << 20));
      launch_exploit(
          xen_dos_exploit(hv::FaultKind::kStarvation, Privilege::kGuestKernel),
          bed.primary());  // the starvation detector fires on its own
      return service_survives(bed);
    }
    case DosSource::kExternalService: {
      // Packet-of-death: inbound traffic is consumed, not replicated, so
      // the rolled-back replica never re-receives the poison.
      Testbed bed(config);
      hv::Vm& vm = bed.create_vm(std::make_unique<PoisonableProgram>());
      bed.protect(vm);
      bed.run_until_seeded();
      bed.simulation().run_for(sim::from_seconds(4));
      const net::NodeId attacker =
          bed.add_client("attacker-svc", [](const net::Packet&) {});
      net::Packet poison;
      poison.src = attacker;
      poison.dst = bed.engine().service_node();
      poison.size_bytes = 64;
      poison.kind = PoisonableProgram::kPoisonKind;
      bed.fabric().send(poison);
      bed.engine().add_detector(std::make_unique<rep::GuestCrashDetector>(vm));
      return service_survives(bed);
    }
  }
  return false;
}

}  // namespace

CoverageRow run_coverage_scenario(DosSource source, std::uint64_t seed) {
  CoverageRow row;
  row.source = source;
  row.guest_failure_covered = guest_failure_covered(source, seed);
  row.host_failure_covered = host_failure_covered(source, seed);
  return row;
}

std::vector<CoverageRow> run_all_coverage_scenarios(std::uint64_t seed) {
  std::vector<CoverageRow> rows;
  for (const DosSource source :
       {DosSource::kAccident, DosSource::kGuestUser, DosSource::kGuestKernel,
        DosSource::kOtherGuest, DosSource::kExternalService}) {
    rows.push_back(run_coverage_scenario(source, seed));
  }
  return rows;
}

}  // namespace here::sec
