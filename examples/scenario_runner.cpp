// Scenario runner: drive a full HERE testbed from a tiny line-based script —
// useful for fault drills and for exploring the system without writing C++.
//
//   ./build/examples/scenario_runner              # runs the built-in drill
//   ./build/examples/scenario_runner my.drill     # runs your script
//
// Script grammar (one directive per line, '#' comments):
//   mode here|remus            replication mode (default here)
//   vm NAME VCPUS MEM_MB LOAD% protected VM and its memory load
//   period TMAX_S D_PCT [SIGMA_MS]
//   at T_S EVENT               schedule an event at T_S seconds after
//                              protection: crash-primary | hang-primary |
//                              starve-primary | crash-secondary | partition |
//                              heal | exploit-xen | failover | load PCT
//   run SECONDS                total scripted runtime
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "replication/detectors.h"
#include "replication/testbed.h"
#include "security/exploit.h"
#include "workload/synthetic.h"

using namespace here;

namespace {

struct Event {
  double at_s = 0;
  std::string action;
  double arg = 0;
};

struct Scenario {
  rep::EngineMode mode = rep::EngineMode::kHere;
  std::string vm_name = "vm";
  std::uint32_t vcpus = 2;
  std::uint64_t mem_mb = 256;
  double load_percent = 20;
  double tmax_s = 2.0;
  double degradation_pct = 0.0;
  double sigma_ms = 200.0;
  double run_s = 30.0;
  std::vector<Event> events;
};

const char* kDefaultScript = R"(# built-in drill: zero-day at t=8s, retry on the replica at t=14s
mode here
vm demo 2 256 25
period 1 0
at 8 exploit-xen
at 14 exploit-xen
run 20
)";

Scenario parse(std::istream& in) {
  Scenario s;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;

    if (directive == "mode") {
      std::string mode;
      tokens >> mode;
      s.mode = mode == "remus" ? rep::EngineMode::kRemus : rep::EngineMode::kHere;
    } else if (directive == "vm") {
      tokens >> s.vm_name >> s.vcpus >> s.mem_mb >> s.load_percent;
    } else if (directive == "period") {
      tokens >> s.tmax_s >> s.degradation_pct;
      if (!(tokens >> s.sigma_ms)) s.sigma_ms = 200.0;
    } else if (directive == "at") {
      Event event;
      tokens >> event.at_s >> event.action;
      if (event.action == "load") tokens >> event.arg;
      s.events.push_back(event);
    } else if (directive == "run") {
      tokens >> s.run_s;
    } else {
      std::cerr << "line " << lineno << ": unknown directive '" << directive
                << "'\n";
      std::exit(2);
    }
  }
  return s;
}

int run(const Scenario& scenario) {
  rep::TestbedConfig config;
  config.vm_spec = hv::make_vm_spec(scenario.vm_name, scenario.vcpus,
                                    scenario.mem_mb << 20);
  config.engine.mode = scenario.mode;
  config.engine.period.t_max = sim::from_seconds(scenario.tmax_s);
  config.engine.period.target_degradation = scenario.degradation_pct / 100.0;
  config.engine.period.sigma = sim::from_millis(scenario.sigma_ms);
  rep::Testbed bed(config);

  auto program_owned = std::make_unique<wl::SyntheticProgram>(
      wl::memory_microbench(scenario.load_percent));
  auto* program = program_owned.get();
  hv::Vm& vm = bed.create_vm(std::move(program_owned));
  bed.protect(vm);
  bed.engine().add_detector(std::make_unique<rep::StarvationDetector>(vm));
  bed.run_until_seeded();
  std::printf("[%7.2fs] protected '%s' (%s -> %s), seed %s\n",
              bed.simulation().now().seconds(), scenario.vm_name.c_str(),
              bed.primary().hypervisor().name().data(),
              bed.secondary().hypervisor().name().data(),
              sim::format_duration(bed.engine().stats().seed.total_time).c_str());

  const sim::TimePoint t0 = bed.simulation().now();
  for (const Event& event : scenario.events) {
    bed.simulation().schedule_at(t0 + sim::from_seconds(event.at_s), [&, event] {
      std::printf("[%7.2fs] event: %s\n", bed.simulation().now().seconds(),
                  event.action.c_str());
      if (event.action == "crash-primary") {
        bed.primary().inject_fault(hv::FaultKind::kCrash);
      } else if (event.action == "hang-primary") {
        bed.primary().inject_fault(hv::FaultKind::kHang);
      } else if (event.action == "starve-primary") {
        bed.primary().inject_fault(hv::FaultKind::kStarvation);
      } else if (event.action == "crash-secondary") {
        bed.secondary().inject_fault(hv::FaultKind::kCrash);
      } else if (event.action == "partition") {
        bed.fabric().set_link_down(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), true);
      } else if (event.action == "heal") {
        bed.fabric().set_link_down(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), false);
      } else if (event.action == "exploit-xen") {
        sec::Exploit exploit;
        exploit.cve_id = "CVE-ZERO-DAY";
        exploit.vulnerable_kind = hv::HvKind::kXen;
        hv::Host& target =
            bed.engine().failed_over() ? bed.secondary() : bed.primary();
        const auto result = sec::launch_exploit(exploit, target);
        std::printf("           exploit vs %s: %s\n", target.name().c_str(),
                    result.effect == sec::ExploitEffect::kNoEffect
                        ? "no effect"
                        : "host DOWN");
      } else if (event.action == "failover") {
        bed.engine().trigger_failover("scripted");
      } else if (event.action == "load") {
        program->set_wss_fraction(event.arg / 100.0);
      } else {
        std::printf("           (unknown action, ignored)\n");
      }
    });
  }

  bed.simulation().run_until(t0 + sim::from_seconds(scenario.run_s));

  const auto& stats = bed.engine().stats();
  std::printf("\n=== report ===\n");
  std::printf("checkpoints: %zu, mean pause %s, mean period %.2fs\n",
              stats.checkpoints.size(),
              sim::format_duration(stats.checkpoints.empty()
                                       ? sim::Duration{}
                                       : stats.total_pause /
                                             static_cast<std::int64_t>(
                                                 stats.checkpoints.size()))
                  .c_str(),
              stats.checkpoints.empty()
                  ? 0.0
                  : stats.period_series.mean_in(t0, bed.simulation().now()));
  if (bed.engine().failed_over()) {
    std::printf("failed over at t=%.2fs, resumption %s, image verified: %s\n",
                stats.failure_detected_at.seconds(),
                sim::format_duration(stats.resumption_time).c_str(),
                stats.replica_digest_at_activation ==
                        stats.committed_digest_at_activation
                    ? "yes"
                    : "NO");
  }
  const bool up = bed.engine().service_available();
  std::printf("service: %s on %s\n", up ? "AVAILABLE" : "DOWN",
              bed.engine().failed_over() ? bed.secondary().name().c_str()
                                : bed.primary().name().c_str());
  return up ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 2;
    }
    return run(parse(file));
  }
  std::istringstream builtin{kDefaultScript};
  std::printf("(no script given; running the built-in drill)\n%s\n",
              kDefaultScript);
  return run(parse(builtin));
}
