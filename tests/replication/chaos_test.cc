// Chaos property test: random sequences of faults, load changes, partitions
// and repairs (primary crashes end in a microreboot or an operator repair;
// secondary host outages, from a crash, a hang or a KVM exploit, end in a
// repair), with system-wide invariants checked throughout:
//   * the simulation stays live (no exceptions, no stuck state);
//   * if a failover happened, the replica activated exactly the committed
//     image (memory and disk digests match);
//   * the client-observed packet sequence is a gapless committed prefix,
//     with at most one (re-emission) discontinuity at failover;
//   * service availability implies an alive host with a runnable VM;
//   * no epoch commits while the secondary host is down;
//   * after every step the engine's lifecycle getters describe one state.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "replication/testbed.h"
#include "security/exploit.h"
#include "workload/protocol.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

class ChaosEmitter final : public hv::GuestProgram {
 public:
  static constexpr std::uint32_t kKind = 0xc4a0;
  explicit ChaosEmitter(net::NodeId client) : client_(client) {}

  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    inner_.tick(env, dt);
    env.send_packet(client_, 64, kKind, next_seq_++);
    env.disk_write(next_seq_ % 5000, 1, next_seq_);
  }
  void set_load(double fraction) { inner_.set_wss_fraction(fraction); }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<ChaosEmitter>(*this);
  }

 private:
  wl::SyntheticProgram inner_{wl::memory_microbench(20)};
  net::NodeId client_;
  std::uint64_t next_seq_ = 0;
};

// The public lifecycle getters must never contradict each other: a failover
// is armed or done, never both; a demoted primary lost to an active replica;
// a rejoining replica has nothing to fail over to.
void expect_consistent_lifecycle(ReplicationEngine& engine, int step) {
  SCOPED_TRACE("step " + std::to_string(step));
  EXPECT_TRUE(engine.seeded());
  EXPECT_FALSE(engine.drained());
  EXPECT_FALSE(engine.failed_over() && engine.failover_in_progress());
  if (engine.primary_demoted()) {
    EXPECT_TRUE(engine.failed_over());
    EXPECT_FALSE(engine.protecting());
  } else {
    EXPECT_TRUE(engine.protecting());
  }
  if (engine.rejoining()) {
    EXPECT_FALSE(engine.failed_over());
    EXPECT_FALSE(engine.failover_in_progress());
  }
}

class ChaosMonkey : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosMonkey, InvariantsHoldUnderRandomFaults) {
  const std::uint64_t seed = GetParam();
  sim::Rng chaos(seed * 7919 + 13);

  TestbedConfig config;
  config.seed = seed;
  config.vm_spec = hv::make_vm_spec("vm", 2, 32ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.period.t_max = sim::from_millis(600);
  config.engine.period.target_degradation = chaos.bernoulli(0.5) ? 0.3 : 0.0;
  Testbed bed(config);

  std::vector<std::uint64_t> seen;
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  const net::NodeId client = bed.add_client("client", [&](const net::Packet& p) {
    if (p.kind == ChaosEmitter::kKind) seen.push_back(p.tag);
  });
  auto program = std::make_unique<ChaosEmitter>(client);
  auto* emitter = program.get();
  vm.attach_program(std::move(program));
  bed.run_until_seeded();

  std::size_t discontinuity_allowed_at = ~std::size_t{0};
  bool primary_killed = false;
  // Secondary host outages as (down, up] intervals: `fail` takes the host
  // down now and a repair brings it back 50-1000 ms later.
  std::vector<std::pair<sim::TimePoint, sim::TimePoint>> outages;
  auto secondary_outage = [&](const std::function<void()>& fail) {
    const sim::Duration outage =
        sim::from_millis(chaos.uniform_real(50.0, 1000.0));
    fail();
    const sim::TimePoint now = bed.simulation().now();
    outages.emplace_back(now, now + outage);
    bed.simulation().schedule_after(
        outage, [&] { bed.secondary().repair(); }, "chaos-secondary-repair");
  };

  for (int step = 0; step < 12; ++step) {
    bed.simulation().run_for(
        sim::from_millis(chaos.uniform_real(200.0, 1500.0)));
    expect_consistent_lifecycle(bed.engine(), step);

    switch (chaos.uniform(8)) {
      case 0:  // load change (a demotion destroyed the emitting VM)
        if (!bed.engine().primary_demoted()) {
          emitter->set_load(chaos.uniform_real(0.02, 0.6));
        }
        break;
      case 1:  // zero-day against the primary
        if (!primary_killed) {
          sec::Exploit exploit;
          exploit.vulnerable_kind = hv::HvKind::kXen;
          exploit.outcome =
              chaos.bernoulli(0.5) ? hv::FaultKind::kCrash : hv::FaultKind::kHang;
          sec::launch_exploit(exploit, bed.primary());
          primary_killed = true;
          discontinuity_allowed_at = std::min(discontinuity_allowed_at,
                                              seen.size());
        }
        break;
      case 2:  // interconnect partition (split brain)
        bed.fabric().set_link_down(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), true);
        discontinuity_allowed_at =
            std::min(discontinuity_allowed_at, seen.size());
        break;
      case 3:  // heal the partition
        bed.fabric().set_link_down(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), false);
        break;
      case 4: {  // exploit against the secondary: a Xen one bounces off
                 // KVM, a KVM one takes the host down until its repair
        sec::Exploit exploit;
        exploit.vulnerable_kind =
            chaos.bernoulli(0.5) ? hv::HvKind::kXen : hv::HvKind::kKvm;
        exploit.outcome =
            chaos.bernoulli(0.5) ? hv::FaultKind::kCrash : hv::FaultKind::kHang;
        if (exploit.vulnerable_kind == hv::HvKind::kXen) {
          EXPECT_EQ(sec::launch_exploit(exploit, bed.secondary()).effect,
                    sec::ExploitEffect::kNoEffect);
        } else if (bed.secondary().alive()) {
          secondary_outage([&] {
            EXPECT_EQ(sec::launch_exploit(exploit, bed.secondary()).effect,
                      sec::ExploitEffect::kDos);
          });
        }
        break;
      }
      case 5:  // quiet step
        break;
      case 6:  // secondary host crash or hang (the replica rejoins on repair)
        if (bed.secondary().alive()) {
          const hv::FaultKind fault = chaos.bernoulli(0.5)
                                          ? hv::FaultKind::kCrash
                                          : hv::FaultKind::kHang;
          secondary_outage([&] { bed.secondary().inject_fault(fault); });
        }
        break;
      case 7:  // primary crash, then a microreboot or a repair: either
               // return goes through the resume-probe arbitration
        if (!primary_killed && bed.primary().alive()) {
          bed.primary().inject_fault(hv::FaultKind::kCrash);
          const bool microreboot = chaos.bernoulli(0.5);
          const sim::Duration outage =
              sim::from_millis(chaos.uniform_real(20.0, 600.0));
          if (microreboot) {
            EXPECT_TRUE(bed.primary().begin_microreboot(outage));
          } else {
            // Like a fault that aborts a reboot window, a zero-day landing
            // mid-outage keeps the host down.
            bed.simulation().schedule_after(
                outage,
                [&] {
                  if (!primary_killed) bed.primary().repair();
                },
                "chaos-repair");
          }
          discontinuity_allowed_at =
              std::min(discontinuity_allowed_at, seen.size());
        }
        break;
    }
    expect_consistent_lifecycle(bed.engine(), step);
  }
  bed.simulation().run_for(sim::from_seconds(3));

  // Invariant: failover implies committed-image activation, bit for bit.
  if (bed.engine().failed_over()) {
    EXPECT_EQ(bed.engine().stats().replica_digest_at_activation,
              bed.engine().stats().committed_digest_at_activation);
    EXPECT_EQ(bed.engine().stats().replica_disk_digest_at_activation,
              bed.engine().stats().committed_disk_digest_at_activation);
    EXPECT_NE(bed.engine().replica_vm(), nullptr);
  }

  // Invariant: client sequence is gapless except (possibly) one failover
  // re-emission point, where it may only step backwards, never skip.
  std::size_t discontinuities = 0;
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (seen[i] == seen[i - 1] + 1) continue;
    ++discontinuities;
    EXPECT_LE(seen[i], seen[i - 1] + 1)
        << "sequence skipped forward at " << i << " (seed " << seed << ")";
  }
  EXPECT_LE(discontinuities, 1u) << "seed " << seed;

  // Invariant: a dead secondary acknowledges nothing.
  for (const CheckpointRecord& record : bed.engine().stats().checkpoints) {
    for (const auto& [down, up] : outages) {
      EXPECT_FALSE(record.completed_at > down && record.completed_at <= up)
          << "epoch " << record.epoch << " committed while the secondary "
          << "was down (seed " << seed << ")";
    }
  }

  // Invariant: availability implies a live host with a runnable VM.
  if (bed.engine().service_available()) {
    hv::Vm* active = bed.engine().active_vm();
    ASSERT_NE(active, nullptr);
    EXPECT_NE(active->state(), hv::VmState::kDestroyed);
    hv::Host& host =
        bed.engine().failed_over() ? bed.secondary() : bed.primary();
    EXPECT_TRUE(host.alive());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosMonkey,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace here::rep
