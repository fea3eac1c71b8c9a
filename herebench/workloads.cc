// The three benchmark workloads (README.md records why each was chosen).
//
// Every workload drives only public APIs: rep::Testbed,
// mgmt::ProtectionManager, faults::FaultInjector, engine stats and the obs
// Tracer/MetricsRegistry. Each layer is timed from outside, around the calls
// the benchmark makes into it.
#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "kvmsim/kvm_hypervisor.h"
#include "mgmt/protection_manager.h"
#include "mgmt/virt.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/testbed.h"
#include "sim/stats.h"
#include "workload/protocol.h"
#include "workload/synthetic.h"
#include "workload/ycsb.h"
#include "xensim/xen_hypervisor.h"

namespace herebench {
namespace {

using namespace here;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Guest program wrapper ----------------------------------------------------------

// State shared by a wrapped program and every clone the engine takes of it.
struct ProgramProbe {
  bool time_ticks = false;  // accumulate wall time spent in tick()
  double tick_wall_s = 0.0;
  // YCSB only: one entry per completion report the guest emitted (virtual
  // emission time, ops in the report), consumed in order by the client.
  bool log_reports = false;
  std::deque<std::pair<sim::TimePoint, std::uint64_t>> reports;
};

// Forwards to the wrapped program, timing tick() and logging the YCSB
// completion reports it emits (one per tick that completed operations).
class ProbedProgram final : public hv::GuestProgram {
 public:
  ProbedProgram(std::unique_ptr<hv::GuestProgram> inner,
                std::shared_ptr<ProgramProbe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  void start(hv::GuestEnv& env) override { inner_->start(env); }

  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    const std::uint64_t before = ops_completed();
    if (probe_->time_ticks) {
      const auto start = Clock::now();
      inner_->tick(env, dt);
      probe_->tick_wall_s += seconds_since(start);
    } else {
      inner_->tick(env, dt);
    }
    if (probe_->log_reports) {
      const std::uint64_t after = ops_completed();
      if (after > before) probe_->reports.emplace_back(env.now(), after - before);
    }
  }

  void on_packet(hv::GuestEnv& env, const net::Packet& packet) override {
    inner_->on_packet(env, packet);
  }
  void on_device_switch(hv::GuestEnv& env) override {
    inner_->on_device_switch(env);
  }
  [[nodiscard]] std::unique_ptr<hv::GuestProgram> clone() const override {
    return std::make_unique<ProbedProgram>(inner_->clone(), probe_);
  }

 private:
  [[nodiscard]] std::uint64_t ops_completed() const {
    const auto* ycsb = dynamic_cast<const wl::YcsbProgram*>(inner_.get());
    return ycsb != nullptr ? ycsb->ops_completed() : 0;
  }

  std::unique_ptr<hv::GuestProgram> inner_;
  std::shared_ptr<ProgramProbe> probe_;
};

// --- Trace recorder and metrics registry -------------------------------------------

struct Obs {
  explicit Obs(bool enabled) {
    if (!enabled) return;
    recorder = std::make_unique<obs::RingBufferRecorder>(1u << 18);
    tracer.set_sink(recorder.get());
    metrics = std::make_unique<obs::MetricsRegistry>();
  }
  [[nodiscard]] obs::Tracer* tracer_ptr() {
    return recorder ? &tracer : nullptr;
  }
  void attach(rep::ReplicationConfig& config) {
    config.tracer = tracer_ptr();
    config.metrics = metrics.get();
  }
  [[nodiscard]] std::uint64_t counter(const char* name) const {
    if (!metrics) return 0;
    const obs::Counter* c = metrics->find_counter(name);
    return c != nullptr ? c->value() : 0;
  }
  // Fabric packets sent since `since` (a registry count, so traced only).
  void set_packets_sent(MetricTable& t, std::uint64_t since = 0) const {
    if (!metrics) return;
    t.set("net.packets_sent", static_cast<double>(counter("net.packets_sent") - since),
          "packets", Kind::kCount);
  }

  std::unique_ptr<obs::RingBufferRecorder> recorder;
  obs::Tracer tracer;
  std::unique_ptr<obs::MetricsRegistry> metrics;
};

// --- Steady-window accounting ------------------------------------------------------

// What each engine looked like when the steady window opened.
struct EngineMark {
  rep::ReplicationEngine* engine = nullptr;
  std::size_t checkpoints = 0;
  std::uint64_t aborted = 0;
  std::uint64_t rejected = 0;
  sim::Duration replication_cpu{};
  rep::EncodeStats encode;
  std::uint64_t pending_max = 0;  // io buffer depth seen during the window
};

EngineMark mark(rep::ReplicationEngine& engine) {
  const rep::EngineStats& s = engine.stats();
  return {&engine,         s.checkpoints.size(), s.epochs_aborted,
          s.commits_rejected, s.replication_cpu, s.encode, 0};
}

struct WindowResult {
  double wall_s = 0.0;
  double virtual_s = 0.0;
  std::uint64_t events = 0;
  double tick_wall_s = 0.0;
  sim::TimePoint start{};
  sim::TimePoint end{};
};

// Runs `length` of virtual time in `slice` steps, one wall-clock span per
// slice, sampling every engine's io-buffer depth between slices.
WindowResult run_window(sim::Simulation& sim, sim::Duration length,
                        sim::Duration slice, std::vector<EngineMark>& marks,
                        const std::vector<ProgramProbe*>& probes,
                        SpanLog& spans) {
  WindowResult w;
  w.start = sim.now();
  const std::uint64_t events0 = sim.executed_count();
  double ticks0 = 0.0;
  for (const ProgramProbe* p : probes) ticks0 += p->tick_wall_s;
  const auto wall0 = Clock::now();
  std::uint64_t slice_id = 0;
  while (sim.now() < w.start + length) {
    const sim::Duration step = std::min(slice, w.start + length - sim.now());
    timed(spans,"sim", "sim.run_for", slice_id++, [&] { sim.run_for(step); });
    for (EngineMark& m : marks) {
      m.pending_max = std::max<std::uint64_t>(m.pending_max,
                                              m.engine->outbound().pending());
    }
  }
  w.wall_s = seconds_since(wall0);
  w.end = sim.now();
  w.virtual_s = sim::to_seconds(w.end - w.start);
  w.events = sim.executed_count() - events0;
  for (const ProgramProbe* p : probes) w.tick_wall_s += p->tick_wall_s;
  w.tick_wall_s -= ticks0;
  if (spans.enabled()) {
    // The per-tick wall time, folded into one span over the whole window
    // (one span per 10 ms guest tick would dwarf every other span).
    spans.add("workload", "workload.ticks", 0, wall0,
              wall0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(w.tick_wall_s)));
  }
  return w;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// Per-epoch end-to-end and engine metrics over the steady window, pooled
// over every engine in `marks`. The window must hold `min_epochs` epochs
// (100 for a full run, so at least ten lie beyond p90).
void window_metrics(const std::vector<EngineMark>& marks, const WindowResult& w,
                    std::uint64_t min_epochs, RepResult& r) {
  std::vector<double> pauses;
  double worst_vm = 0.0, period_sum = 0.0;
  double dirty_sum = 0.0, bytes_sum = 0.0, cpu_s = 0.0, vm_mean_sum = 0.0;
  std::size_t vms = 0;
  std::uint64_t aborted = 0, rejected = 0, pending_max = 0;
  rep::EncodeStats enc;
  for (const EngineMark& m : marks) {
    const rep::EngineStats& s = m.engine->stats();
    double vm_sum = 0.0;
    std::size_t vm_n = 0;
    for (std::size_t i = m.checkpoints; i < s.checkpoints.size(); ++i) {
      const rep::CheckpointRecord& c = s.checkpoints[i];
      if (c.completed_at > w.end) break;
      pauses.push_back(sim::to_millis(c.pause));
      period_sum += sim::to_seconds(c.period_used);
      dirty_sum += static_cast<double>(c.dirty_pages_model);
      bytes_sum += static_cast<double>(c.bytes_model);
      vm_sum += c.degradation;
      ++vm_n;
    }
    if (vm_n > 0) {
      const double vm_mean = vm_sum / static_cast<double>(vm_n);
      worst_vm = std::max(worst_vm, vm_mean);
      vm_mean_sum += vm_mean;
      ++vms;
    }
    aborted += s.epochs_aborted - m.aborted;
    rejected += s.commits_rejected - m.rejected;
    cpu_s += sim::to_seconds(s.replication_cpu - m.replication_cpu);
    pending_max = std::max(pending_max, m.pending_max);
    enc.pages_in += s.encode.pages_in - m.encode.pages_in;
    enc.pages_raw += s.encode.pages_raw - m.encode.pages_raw;
    enc.pages_zero += s.encode.pages_zero - m.encode.pages_zero;
    enc.pages_delta += s.encode.pages_delta - m.encode.pages_delta;
    enc.pages_skipped += s.encode.pages_skipped - m.encode.pages_skipped;
    enc.bytes_in += s.encode.bytes_in - m.encode.bytes_in;
    enc.bytes_out += s.encode.bytes_out - m.encode.bytes_out;
  }
  const auto n = static_cast<std::uint64_t>(pauses.size());
  const double dn = n > 0 ? static_cast<double>(n) : 1.0;
  MetricTable& t = r.metrics;
  t.set("pause_ms.p50", quantile(pauses, 0.50), "ms", Kind::kVirtual, n);
  t.set("pause_ms.p90", quantile(pauses, 0.90), "ms", Kind::kVirtual, n);
  // Degradation is a per-VM quantity (each VM has its own budget D), so the
  // fleet figure averages per-VM means; pooling epochs instead would weight
  // short-period VMs by their epoch count.
  t.set("degradation_pct", 100.0 * vm_mean_sum / static_cast<double>(std::max<std::size_t>(vms, 1)),
        "%", Kind::kVirtual, n);
  t.set("degradation_pct.worst_vm", 100.0 * worst_vm, "%", Kind::kVirtual, vms);
  t.set("epoch_fail_ratio",
        static_cast<double>(aborted + rejected) /
            static_cast<double>(std::max<std::uint64_t>(n + aborted + rejected, 1)),
        "ratio", Kind::kVirtual, n + aborted + rejected);
  t.set("sim_rate", w.virtual_s / w.wall_s, "virtual_s/s", Kind::kWall);
  r.attempted += n + aborted + rejected;
  r.failed += aborted + rejected;
  r.gates.push_back({"steady window holds >= " + std::to_string(min_epochs) + " epochs",
                     n >= min_epochs && n > 0, std::to_string(n) + " epochs"});

  t.set("engine.dirty_pages_per_epoch", dirty_sum / dn, "pages", Kind::kCount);
  t.set("engine.model_bytes_per_epoch", bytes_sum / dn, "bytes", Kind::kCount);
  t.set("engine.period_s_mean", period_sum / dn, "s", Kind::kVirtual);
  t.set("engine.replication_cpu_s", cpu_s, "s", Kind::kVirtual);
  t.set("io.pending_max", static_cast<double>(pending_max), "packets", Kind::kCount);
  const bool encoded = enc.pages_in > 0;
  const double pages_in = encoded ? static_cast<double>(enc.pages_in) : 1.0;
  t.set("encoder.wire_ratio",
        encoded ? static_cast<double>(enc.bytes_out) / static_cast<double>(enc.bytes_in)
                : 1.0,
        "ratio", Kind::kCount);
  t.set("encoder.share_raw", encoded ? static_cast<double>(enc.pages_raw) / pages_in : 1.0,
        "ratio", Kind::kCount);
  t.set("encoder.share_zero", static_cast<double>(enc.pages_zero) / pages_in, "ratio",
        Kind::kCount);
  t.set("encoder.share_delta", static_cast<double>(enc.pages_delta) / pages_in,
        "ratio", Kind::kCount);
  t.set("encoder.share_skip", static_cast<double>(enc.pages_skipped) / pages_in,
        "ratio", Kind::kCount);
  t.set("sim.events", static_cast<double>(w.events), "events", Kind::kCount);
  t.set("sim.events_per_wall_s", static_cast<double>(w.events) / w.wall_s, "1/s",
        Kind::kWall);
  t.set("workload.tick_wall_share", w.tick_wall_s / w.wall_s, "ratio", Kind::kWall);
}

void seed_metrics(const std::vector<EngineMark>& marks, double virtual_s,
                  MetricTable& t) {
  std::uint64_t pages = 0, iterations = 0;
  for (const EngineMark& m : marks) {
    pages += m.engine->stats().seed.pages_sent;
    iterations += m.engine->stats().seed.iterations;
  }
  t.set("seed.pages", static_cast<double>(pages), "pages", Kind::kCount);
  t.set("seed.iterations", static_cast<double>(iterations), "rounds", Kind::kCount);
  t.set("seed.virtual_s", virtual_s, "s", Kind::kVirtual);
}

// Activation must install exactly the last committed image.
void activation_gate(const rep::EngineStats& s, const std::string& who,
                     RepResult& r) {
  const bool memory = s.replica_digest_at_activation == s.committed_digest_at_activation;
  const bool disk =
      s.replica_disk_digest_at_activation == s.committed_disk_digest_at_activation;
  r.gates.push_back({"activation digest equals committed (" + who + ")",
                     memory && disk,
                     std::string(memory ? "" : "memory mismatch ") +
                         (disk ? "" : "disk mismatch")});
}

// Defaults for the layers a workload does not exercise, so every workload
// reports the same per-layer table (a zero means "this layer did no work").
void idle_fleet_metrics(std::uint32_t threads, MetricTable& t) {
  t.set("pool.grant_threads_mean", threads, "threads", Kind::kCount);
  t.set("pool.contended_share", 0.0, "ratio", Kind::kCount);
  t.set("arbiter.queue_ms_mean", 0.0, "ms", Kind::kVirtual);
  t.set("arbiter.queue_ms_max", 0.0, "ms", Kind::kVirtual);
  t.set("arbiter.goodput_mbps", 0.0, "Mbit/s", Kind::kVirtual);
  t.set("arbiter.peak_reserved_ratio", 0.0, "ratio", Kind::kVirtual);
  t.set("mgmt.replica_moves", 0.0, "moves", Kind::kCount);
  t.set("mgmt.rebalance_deferred", 0.0, "moves", Kind::kCount);
  t.set("mgmt.membership_rounds", 0.0, "rounds", Kind::kCount);
  t.set("mgmt.hetero_violations", 0.0, "pairs", Kind::kCount);
}

// A seed-derived offset inside one heartbeat interval, so the fault lands at
// a different heartbeat phase for every seed.
sim::Duration fault_offset(std::uint64_t seed) {
  sim::Rng rng(seed ^ 0x5eedfa17ULL);
  return sim::from_micros(static_cast<std::int64_t>(rng.uniform(25'000)));
}

// Copies the live image into a fresh GuestMemory (the replay's reference
// for "what the replica held when the window opened").
std::unique_ptr<hv::GuestMemory> snapshot_memory(const hv::GuestMemory& memory) {
  auto copy = std::make_unique<hv::GuestMemory>(memory.pages(), memory.vcpus());
  for (common::Gfn g = 0; g < memory.pages(); ++g) copy->install_page(g, memory.page(g));
  return copy;
}

// Real dirty pages per epoch, read from the trace's ckpt.pause spans. With
// `epochs` (one engine) the spans of exactly those epochs, in order, and
// `missing` counts epochs without a span; without (a fleet, whose engines
// share epoch numbers) every span that began inside the window.
std::vector<std::uint64_t> traced_dirty_pages(const Obs& obs, const WindowResult& w,
                                              std::uint64_t model_scale,
                                              const std::vector<std::uint64_t>& epochs,
                                              std::size_t& missing) {
  std::vector<std::uint64_t> in_window;
  std::map<std::uint64_t, std::uint64_t> by_epoch;
  const std::int64_t lo = w.start.since_start().count();
  const std::int64_t hi = w.end.since_start().count();
  for (const obs::TraceEvent& e : obs.recorder->snapshot()) {
    if (e.name != "ckpt.pause") continue;
    std::uint64_t epoch = 0, dirty = 0;
    for (const auto& [key, value] : e.args) {
      if (key == "epoch") epoch = value.as_uint64();
      if (key == "dirty_pages") dirty = value.as_uint64() / model_scale;
    }
    by_epoch[epoch] = dirty;
    if (e.ts_ns >= lo && e.ts_ns < hi) in_window.push_back(dirty);
  }
  if (epochs.empty()) return in_window;
  std::vector<std::uint64_t> out;
  for (const std::uint64_t epoch : epochs) {
    const auto it = by_epoch.find(epoch);
    if (it == by_epoch.end()) {
      ++missing;
    } else {
      out.push_back(it->second);
    }
  }
  return out;
}

// Epoch numbers the engine committed inside the window.
std::vector<std::uint64_t> window_epochs(const EngineMark& m, const WindowResult& w) {
  std::vector<std::uint64_t> epochs;
  const auto& checkpoints = m.engine->stats().checkpoints;
  for (std::size_t i = m.checkpoints; i < checkpoints.size(); ++i) {
    if (checkpoints[i].completed_at > w.end) break;
    epochs.push_back(checkpoints[i].epoch);
  }
  return epochs;
}

void replay_and_trace_metrics(const Obs& obs, const WindowResult& w,
                              const hv::GuestMemory* start_image,
                              const hv::GuestMemory& end_image,
                              std::uint64_t model_scale,
                              const rep::EncoderConfig& encoders,
                              std::uint32_t threads, std::uint64_t seed,
                              const std::vector<std::uint64_t>& epochs,
                              const hv::Vm& vm, const hv::Host& primary,
                              const hv::Host& secondary, SpanLog& spans,
                              RepResult& r) {
  if (!obs.recorder || start_image == nullptr) return;
  const std::unique_ptr<hv::SavedMachineState> state =
      primary.hypervisor().save_machine_state(vm);
  ReplayInput in;
  in.machine_state = state.get();
  in.translation_target = &secondary.hypervisor();
  in.start_image = start_image;
  in.end_image = &end_image;
  std::size_t missing = 0;
  in.epoch_dirty_pages = traced_dirty_pages(obs, w, model_scale, epochs, missing);
  in.encoders = encoders;
  in.threads = threads;
  in.seed = seed;
  if (!epochs.empty()) {
    r.gates.push_back({"trace holds a ckpt.pause span for every committed epoch",
                       missing == 0,
                       std::to_string(missing) + " of " + std::to_string(epochs.size()) +
                           " epochs missing"});
  }
  r.gates.push_back({"trace ring did not wrap", obs.recorder->overwritten() == 0,
                     std::to_string(obs.recorder->overwritten()) + " lost"});
  run_stage_replay(in, spans, r.metrics, r.gates);
}

// --- memload_raw --------------------------------------------------------------------

RepResult run_memload(const RunOptions& o, SpanLog& spans) {
  RepResult r;
  Obs obs(o.traced);
  const auto setup0 = Clock::now();

  rep::TestbedConfig tb;
  tb.seed = o.seed;
  tb.vm_spec = hv::make_vm_spec("memload", 4, 8ULL << 30, 64);
  tb.engine.checkpoint_threads = 4;
  tb.engine.period.t_max = sim::from_seconds(1);  // D = 0: fixed T = 1 s
  obs.attach(tb.engine);
  rep::Testbed bed(tb);
  auto probe = std::make_shared<ProgramProbe>();
  probe->time_ticks = o.traced;
  hv::Vm& vm = bed.create_vm(std::make_unique<ProbedProgram>(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(30.0)), probe));
  const auto protect0 = Clock::now();
  timed(spans, "mgmt", "mgmt.protect", 0, [&] { bed.protect(vm); });
  r.metrics.set("mgmt.place_protect_ms", 1e3 * seconds_since(protect0), "ms", Kind::kWall);
  timed(spans, "replication", "seed.until_seeded", 0, [&] { bed.run_until_seeded(); });
  r.metrics.set("setup_s", seconds_since(setup0), "s", Kind::kWall);
  if (o.setup_only) return r;
  const double seed_virtual_s = sim::to_seconds(bed.simulation().now().since_start());

  rep::ReplicationEngine& engine = bed.engine();
  // The first checkpoint carries the seeding residue; the window opens after it.
  bed.run_until([&] { return !engine.stats().checkpoints.empty(); },
                sim::from_seconds(600));
  std::vector<EngineMark> marks{mark(engine)};
  std::unique_ptr<hv::GuestMemory> start_image;
  if (o.traced) start_image = snapshot_memory(vm.memory());
  const WindowResult w =
      run_window(bed.simulation(), sim::from_seconds(o.short_run ? 20 : 120),
                 sim::from_seconds(1), marks, {probe.get()}, spans);
  window_metrics(marks, w, o.short_run ? 1 : 100, r);
  seed_metrics(marks, seed_virtual_s, r.metrics);
  idle_fleet_metrics(tb.engine.checkpoint_threads, r.metrics);
  replay_and_trace_metrics(obs, w, start_image.get(), vm.memory(),
                           tb.vm_spec.model_scale, tb.engine.encoders,
                           tb.engine.checkpoint_threads, o.seed,
                           window_epochs(marks[0], w), vm, bed.primary(),
                           bed.secondary(), spans, r);

  // Fault phase: the primary host crashes; the replica must resume.
  faults::FaultInjector injector(bed.simulation(), bed.fabric(), obs.tracer_ptr(),
                                 obs.metrics.get());
  injector.register_testbed(bed);
  const sim::TimePoint crash_at =
      bed.simulation().now() + sim::from_millis(100) + fault_offset(o.seed);
  faults::FaultPlan plan;
  plan.crash_host("host-a", crash_at);
  injector.arm(plan);
  const bool failed_over = bed.run_until([&] { return engine.failed_over(); },
                                         sim::from_seconds(30), sim::from_millis(5));
  r.gates.push_back({"primary crash fails over", failed_over, ""});
  if (failed_over) activation_gate(engine.stats(), "memload", r);
  r.metrics.set("mttr_ms", sim::to_millis(engine.stats().replica_active_at - crash_at),
                "ms", Kind::kVirtual, 1);
  r.metrics.set("dropped_at_failover",
                static_cast<double>(engine.stats().packets_dropped_at_failover),
                "packets", Kind::kCount);
  r.metrics.set("wal.bytes_per_epoch", 0.0, "bytes", Kind::kCount);
  r.metrics.set("wal.records_replayed", 0.0, "records", Kind::kCount);
  r.metrics.set("rejoin.resync_pages", 0.0, "pages", Kind::kCount);
  obs.set_packets_sent(r.metrics);
  return r;
}

// --- ycsb_durable -------------------------------------------------------------------

// The external YCSB client: matches each completion report it receives to
// the report the guest emitted (in order) and keeps the latency of the
// reports emitted and received inside the steady window.
struct YcsbClient {
  ProgramProbe* probe = nullptr;
  bool measuring = false;
  sim::TimePoint window_start{};
  std::vector<double> latency_ms;
  std::uint64_t ops = 0;
  std::uint64_t mismatches = 0;

  void on_packet(sim::TimePoint now, const net::Packet& packet) {
    if (packet.kind != wl::kYcsbReport || !probe->log_reports) return;
    if (probe->reports.empty() || probe->reports.front().second != packet.tag) {
      ++mismatches;
      return;
    }
    const sim::TimePoint emitted = probe->reports.front().first;
    probe->reports.pop_front();
    if (measuring && emitted >= window_start) {
      latency_ms.push_back(sim::to_millis(now - emitted));
      ops += packet.tag;
    }
  }
};

RepResult run_ycsb(const RunOptions& o, SpanLog& spans) {
  RepResult r;
  Obs obs(o.traced);
  const auto setup0 = Clock::now();

  rep::TestbedConfig tb;
  tb.seed = o.seed;
  tb.vm_spec = hv::make_vm_spec("ycsb", 4, 2ULL << 30, 64);
  tb.engine.checkpoint_threads = 4;
  tb.engine.period.t_max = sim::from_seconds(2);
  tb.engine.period.target_degradation = 0.30;
  tb.engine.encoders = rep::EncoderConfig::all();
  tb.durable_replica = true;
  obs.attach(tb.engine);
  rep::Testbed bed(tb);
  sim::Simulation& sim = bed.simulation();
  rep::ReplicationEngine& engine = bed.engine();

  hv::Vm& vm = bed.create_vm(nullptr);
  const auto protect0 = Clock::now();
  timed(spans, "mgmt", "mgmt.protect", 0, [&] { bed.protect(vm); });
  r.metrics.set("mgmt.place_protect_ms", 1e3 * seconds_since(protect0), "ms", Kind::kWall);
  auto probe = std::make_shared<ProgramProbe>();
  probe->time_ticks = o.traced;
  probe->log_reports = true;
  YcsbClient client;
  client.probe = probe.get();
  wl::YcsbConfig ycsb;
  ycsb.mix = wl::ycsb_a();
  ycsb.record_count = 1'000'000 / tb.vm_spec.model_scale;
  ycsb.op_limit = ~0ULL;
  ycsb.monitor = bed.add_client("ycsb-client", [&](const net::Packet& p) {
    client.on_packet(sim.now(), p);
  });
  vm.attach_program(std::make_unique<ProbedProgram>(
      std::make_unique<wl::YcsbProgram>(ycsb), probe));
  timed(spans, "replication", "seed.until_seeded", 0, [&] { bed.run_until_seeded(); });
  r.metrics.set("setup_s", seconds_since(setup0), "s", Kind::kWall);
  if (o.setup_only) return r;
  const double seed_virtual_s = sim::to_seconds(sim.now().since_start());

  // Warm-up: let the seeding backlog drain and Algorithm 1 settle.
  bed.run_until([&] { return engine.stats().checkpoints.size() >= 2; },
                sim::from_seconds(600));
  sim.run_for(sim::from_seconds(o.short_run ? 2 : 10));

  std::vector<EngineMark> marks{mark(engine)};
  const rep::DurableStore::Stats wal0 = bed.durable_store()->stats();
  std::unique_ptr<hv::GuestMemory> start_image;
  if (o.traced) start_image = snapshot_memory(vm.memory());
  client.window_start = sim.now();
  client.measuring = true;
  const WindowResult w = run_window(sim, sim::from_seconds(o.short_run ? 10 : 80),
                                    sim::from_seconds(1), marks, {probe.get()}, spans);
  client.measuring = false;
  window_metrics(marks, w, o.short_run ? 1 : 100, r);
  seed_metrics(marks, seed_virtual_s, r.metrics);
  idle_fleet_metrics(tb.engine.checkpoint_threads, r.metrics);
  const rep::DurableStore::Stats wal1 = bed.durable_store()->stats();
  const std::uint64_t appends = wal1.wal_appends - wal0.wal_appends;
  r.metrics.set("wal.bytes_per_epoch",
                appends > 0 ? static_cast<double>(wal1.bytes_appended - wal0.bytes_appended) /
                                  static_cast<double>(appends)
                            : 0.0,
                "bytes", Kind::kCount);

  const auto n = static_cast<std::uint64_t>(client.latency_ms.size());
  r.metrics.set("throughput_kops", static_cast<double>(client.ops) / w.virtual_s / 1e3,
                "kops/s", Kind::kVirtual, n);
  r.metrics.set("client_latency_ms.p50", quantile(client.latency_ms, 0.50), "ms",
                Kind::kVirtual, n);
  r.metrics.set("client_latency_ms.p99", quantile(client.latency_ms, 0.99), "ms",
                Kind::kVirtual, n);
  r.gates.push_back({"throughput_kops > 0", client.ops > 0, ""});
  r.gates.push_back({"client receives every report in emission order",
                     client.mismatches == 0,
                     std::to_string(client.mismatches) + " out-of-order reports"});
  if (!o.short_run) {
    r.gates.push_back({"steady window holds >= 1000 client reports", n >= 1000,
                       std::to_string(n) + " reports"});
  }
  replay_and_trace_metrics(obs, w, start_image.get(), vm.memory(),
                           tb.vm_spec.model_scale, tb.engine.encoders,
                           tb.engine.checkpoint_threads, o.seed,
                           window_epochs(marks[0], w), vm, bed.primary(),
                           bed.secondary(), spans, r);

  // Fault phase 1: torn WAL tail + secondary crash -> local recovery, rejoin.
  probe->log_reports = false;
  faults::FaultInjector injector(sim, bed.fabric(), obs.tracer_ptr(),
                                 obs.metrics.get());
  injector.register_testbed(bed);
  const sim::TimePoint crash_at = sim.now() + sim::from_millis(100) + fault_offset(o.seed);
  faults::FaultPlan rejoin_plan;
  rejoin_plan.wal_torn_write("engine", crash_at, 24)
      .secondary_crash("engine", crash_at, sim::from_millis(500));
  injector.arm(rejoin_plan);
  const bool rejoined = bed.run_until(
      [&] {
        const rep::EngineStats& s = engine.stats();
        return s.secondary_crashes == 1 && !engine.rejoining() &&
               s.last_rejoin_time > sim::Duration{0};
      },
      sim::from_seconds(60), sim::from_millis(5));
  const rep::EngineStats& s = engine.stats();
  r.gates.push_back({"secondary rejoins from its local store",
                     rejoined && s.rejoins == 1 && s.full_resyncs == 0,
                     "rejoins=" + std::to_string(s.rejoins) +
                         " full_resyncs=" + std::to_string(s.full_resyncs)});
  r.metrics.set("rejoin_ms", sim::to_millis(s.last_rejoin_time), "ms", Kind::kVirtual, 1);
  r.metrics.set("wal.records_replayed", static_cast<double>(s.wal_records_replayed),
                "records", Kind::kCount);
  r.metrics.set("rejoin.resync_pages", static_cast<double>(s.resync_pages), "pages",
                Kind::kCount);

  // Fault phase 2: the primary host crashes; the replica must resume.
  sim.run_for(sim::from_seconds(1));
  const sim::TimePoint fail_at = sim.now() + sim::from_millis(100) + fault_offset(o.seed + 1);
  faults::FaultPlan crash_plan;
  crash_plan.crash_host("host-a", fail_at);
  injector.arm(crash_plan);
  const bool failed_over = bed.run_until([&] { return engine.failed_over(); },
                                         sim::from_seconds(30), sim::from_millis(5));
  r.gates.push_back({"primary crash fails over", failed_over, ""});
  if (failed_over) activation_gate(s, "ycsb", r);
  r.metrics.set("mttr_ms", sim::to_millis(s.replica_active_at - fail_at), "ms",
                Kind::kVirtual, 1);
  r.metrics.set("dropped_at_failover", static_cast<double>(s.packets_dropped_at_failover),
                "packets", Kind::kCount);
  obs.set_packets_sent(r.metrics);
  return r;
}

// --- fleet100 -----------------------------------------------------------------------

constexpr int kFleetVms = 100;
constexpr std::uint64_t kFleetVmBytes = 16ULL << 20;  // modelled
constexpr std::uint64_t kFleetScale = 4;              // 4 MiB real per VM

struct Fleet {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  std::vector<std::unique_ptr<hv::Host>> hosts;
};

RepResult run_fleet(const RunOptions& o, SpanLog& spans) {
  RepResult r;
  Obs obs(o.traced);
  const auto setup0 = Clock::now();

  Fleet fleet;
  sim::Rng root(o.seed);
  for (int i = 0; i < 4; ++i) {
    fleet.hosts.push_back(std::make_unique<hv::Host>(
        "xen" + std::to_string(i), fleet.fabric,
        std::make_unique<xen::XenHypervisor>(fleet.sim, root.fork())));
  }
  for (int i = 0; i < 4; ++i) {
    fleet.hosts.push_back(std::make_unique<hv::Host>(
        "kvm" + std::to_string(i), fleet.fabric,
        std::make_unique<kvm::KvmHypervisor>(fleet.sim, root.fork())));
  }
  if (o.traced) fleet.fabric.attach_obs(obs.tracer_ptr(), obs.metrics.get());

  rep::ReplicationConfig defaults;
  obs.attach(defaults);
  defaults.ft.scrub_interval = sim::from_seconds(2);
  mgmt::ProtectionManager manager(fleet.sim, fleet.fabric, defaults);
  for (auto& host : fleet.hosts) manager.add_host(*host);
  mgmt::ProtectionManager::FleetConfig fleet_config;
  fleet_config.link_bytes_per_second = 100e6 / 8.0 / 8.0;  // 100 Mbit/s over 8
  fleet_config.adaptive_weights = true;
  manager.enable_fleet_scheduling(fleet_config);
  manager.enable_durable_replicas();
  // The rebalance planner runs every placement tick, but with no move budget:
  // a replica moved while its primary is hung can never seed, so whether a
  // VM survives the fault would hinge on a move racing failure detection.
  // Its candidates are counted as deferred; replica moves come from repairs.
  mgmt::ProtectionManager::FleetPlacementConfig placement;
  placement.rebalance.moves_per_tick = 0;
  manager.enable_fleet_placement(placement);
  manager.enable_auto_reprotect();

  mgmt::ProtectionManager::VmPolicy policy;
  policy.target_degradation = 0.10;
  policy.t_max = sim::from_seconds(1);
  policy.checkpoint_threads = 2;
  std::vector<std::shared_ptr<ProgramProbe>> probes;
  std::vector<ProgramProbe*> probe_ptrs;
  bool placed = true;
  double place_protect_s = 0.0;
  for (int i = 0; i < kFleetVms; ++i) {
    mgmt::DomainConfig domain;
    domain.name = "vm" + std::to_string(i);
    domain.memory_bytes = kFleetVmBytes;
    domain.model_scale = kFleetScale;
    auto probe = std::make_shared<ProgramProbe>();
    probe->time_ticks = o.traced;
    probes.push_back(probe);
    probe_ptrs.push_back(probe.get());
    const auto place0 = Clock::now();
    timed(spans, "mgmt", "mgmt.place_protect", static_cast<std::uint64_t>(i), [&] {
      here::Expected<hv::Vm*> vm = manager.create_placed_domain(domain);
      if (!vm.ok()) {
        placed = false;
        return;
      }
      (*vm)->attach_program(std::make_unique<ProbedProgram>(
          std::make_unique<wl::SyntheticProgram>(
              wl::memory_microbench(4.0 + 2.0 * static_cast<double>(i % 10))),
          probe));
      placed = placed && manager.protect_placed(**vm, policy).ok();
    });
    place_protect_s += seconds_since(place0);
  }
  r.gates.push_back({"every VM placed and protected", placed, ""});
  if (o.traced) {
    // The manager creates the shared schedulers without telemetry.
    for (auto& host : fleet.hosts) {
      if (net::LinkArbiter* arbiter = manager.link_arbiter_of(*host)) {
        arbiter->attach_obs(obs.tracer_ptr(), obs.metrics.get());
      }
      if (rep::MigratorPool* pool = manager.migrator_pool_of(*host)) {
        pool->attach_obs(obs.metrics.get());
      }
    }
  }
  auto all_seeded = [&] {
    return std::ranges::all_of(manager.protections(),
                               [](const auto& p) { return p->engine().seeded(); });
  };
  bool seeded = false;
  timed(spans,"replication", "seed.until_seeded", 0, [&] {
    const sim::TimePoint deadline = fleet.sim.now() + sim::from_seconds(600);
    while (fleet.sim.now() < deadline && !(seeded = all_seeded())) {
      fleet.sim.run_for(sim::from_millis(50));
    }
  });
  r.gates.push_back({"every VM seeded", seeded && placed, ""});
  r.metrics.set("setup_s", seconds_since(setup0), "s", Kind::kWall);
  r.metrics.set("mgmt.place_protect_ms", 1e3 * place_protect_s / kFleetVms, "ms",
                Kind::kWall);
  if (!seeded || !placed || o.setup_only) return r;
  const double seed_virtual_s = sim::to_seconds(fleet.sim.now().since_start());

  fleet.sim.run_for(sim::from_seconds(2));
  std::vector<EngineMark> marks;
  for (const auto& p : manager.protections()) marks.push_back(mark(p->engine()));
  struct FlowMark {
    std::uint64_t requests = 0;
    sim::Duration queueing{};
  };
  auto arbiter_totals = [&] {
    FlowMark total;
    for (auto& host : fleet.hosts) {
      const net::LinkArbiter* arb = manager.link_arbiter_of(*host);
      if (arb == nullptr) continue;
      for (std::uint32_t f = 0; f < arb->flow_count(); ++f) {
        total.requests += arb->stats(f).requests;
        total.queueing += arb->stats(f).queueing;
      }
    }
    return total;
  };
  auto pool_totals = [&] {
    std::array<std::uint64_t, 3> t{};  // bursts, contended, granted threads
    for (auto& host : fleet.hosts) {
      const rep::MigratorPool* pool = manager.migrator_pool_of(*host);
      if (pool == nullptr) continue;
      for (rep::MigratorPool::ClientId c = 0; c < pool->client_count(); ++c) {
        const rep::MigratorPool::ClientStats cs = pool->client_stats(c);
        t[0] += cs.bursts;
        t[1] += cs.contended_bursts;
        t[2] += cs.granted_thread_sum;
      }
    }
    return t;
  };
  const FlowMark arb0 = arbiter_totals();
  const auto pool0 = pool_totals();
  const std::uint64_t wire0 = manager.fleet_report().total_wire_bytes;
  const std::uint64_t packets0 = obs.counter("net.packets_sent");
  // The replay samples the first Xen-hosted VM (Xen -> KVM translation).
  const mgmt::ProtectionManager::Protection* sample = nullptr;
  for (const auto& p : manager.protections()) {
    if (p->primary->hypervisor().kind() == hv::HvKind::kXen) {
      sample = p.get();
      break;
    }
  }
  hv::Vm* sample_vm = sample != nullptr ? sample->engine().primary_vm() : nullptr;
  std::unique_ptr<hv::GuestMemory> start_image;
  if (o.traced && sample_vm != nullptr) start_image = snapshot_memory(sample_vm->memory());
  const WindowResult w =
      run_window(fleet.sim, sim::from_seconds(o.short_run ? 2 : 12),
                 sim::from_millis(500), marks, probe_ptrs, spans);
  window_metrics(marks, w, o.short_run ? 1 : 100, r);
  seed_metrics(marks, seed_virtual_s, r.metrics);

  const FlowMark arb1 = arbiter_totals();
  const auto pool1 = pool_totals();
  const mgmt::ProtectionManager::FleetReport report = manager.fleet_report();
  const std::uint64_t bursts = pool1[0] - pool0[0];
  const double dbursts = bursts > 0 ? static_cast<double>(bursts) : 1.0;
  r.metrics.set("pool.grant_threads_mean", static_cast<double>(pool1[2] - pool0[2]) / dbursts,
                "threads", Kind::kCount);
  r.metrics.set("pool.contended_share", static_cast<double>(pool1[1] - pool0[1]) / dbursts,
                "ratio", Kind::kCount);
  const std::uint64_t requests = arb1.requests - arb0.requests;
  r.metrics.set("arbiter.queue_ms_mean",
                requests > 0 ? sim::to_millis(arb1.queueing - arb0.queueing) /
                                   static_cast<double>(requests)
                             : 0.0,
                "ms", Kind::kVirtual);
  // The per-request maximum exists only in the registry (traced runs).
  if (const obs::FixedHistogram* queue =
          obs.metrics ? obs.metrics->find_histogram("net.arb.queue_ms") : nullptr) {
    r.metrics.set("arbiter.queue_ms_max", queue->max(), "ms", Kind::kVirtual);
  }
  r.metrics.set("arbiter.goodput_mbps",
                8.0 * static_cast<double>(report.total_wire_bytes - wire0) /
                    (w.virtual_s * 1e6),
                "Mbit/s", Kind::kVirtual);
  r.metrics.set("arbiter.peak_reserved_ratio",
                report.link_capacity_bytes_per_s > 0
                    ? report.peak_reserved_bytes_per_s / report.link_capacity_bytes_per_s
                    : 0.0,
                "ratio", Kind::kVirtual);
  r.gates.push_back({"link never oversubscribed",
                     report.peak_reserved_bytes_per_s <=
                         report.link_capacity_bytes_per_s * (1.0 + 1e-9),
                     ""});
  obs.set_packets_sent(r.metrics, packets0);
  {
    std::uint64_t appends = 0, bytes = 0;
    for (const auto& p : manager.protections()) {
      if (const rep::DurableStore* store = p->store()) {
        appends += store->stats().wal_appends;
        bytes += store->stats().bytes_appended;
      }
    }
    r.metrics.set("wal.bytes_per_epoch",
                  appends > 0 ? static_cast<double>(bytes) / static_cast<double>(appends)
                              : 0.0,
                  "bytes", Kind::kCount);
  }
  if (sample_vm != nullptr) {
    replay_and_trace_metrics(obs, w, start_image.get(), sample_vm->memory(), kFleetScale,
                             defaults.encoders, policy.checkpoint_threads, o.seed, {},
                             *sample_vm, *sample->primary, *sample->secondary, spans, r);
  }

  // Fault phase: one Xen and one KVM host hang. VMs whose primary was there
  // fail over (then get re-protected); VMs whose replica was there are
  // drained, re-placed and delta-reseeded; everyone else keeps committing.
  faults::FaultInjector injector(fleet.sim, fleet.fabric, obs.tracer_ptr(),
                                 obs.metrics.get());
  for (auto& host : fleet.hosts) injector.register_host(host->name(), *host);
  const hv::Host* hung_xen = fleet.hosts[0].get();
  const hv::Host* hung_kvm = fleet.hosts[4].get();
  const sim::TimePoint hang_at =
      fleet.sim.now() + sim::from_millis(100) + fault_offset(o.seed);
  faults::FaultPlan plan;
  plan.hang_host(hung_xen->name(), hang_at).hang_host(hung_kvm->name(), hang_at);
  injector.arm(plan);

  // A VM with both hosts hung has no replica left to activate; it is
  // counted, not gated.
  struct Watch {
    rep::ReplicationEngine* engine;
    const mgmt::ProtectionManager::Protection* protection;
    bool fails_over;  // primary hung, replica alive
    bool survivor;    // neither host hung
  };
  std::vector<Watch> watches;
  std::size_t lost = 0;
  for (const auto& p : manager.protections()) {
    const bool primary_hung = p->primary == hung_xen || p->primary == hung_kvm;
    const bool secondary_hung = p->secondary == hung_xen || p->secondary == hung_kvm;
    watches.push_back({&p->engine(), p.get(), primary_hung && !secondary_hung,
                       !primary_hung && !secondary_hung});
    if (primary_hung && secondary_hung) ++lost;
  }
  auto recovered = [&] {
    for (const Watch& wt : watches) {
      if (!wt.fails_over) continue;
      if (!wt.engine->failed_over()) return false;
      if (wt.protection->mttr.empty() || !wt.protection->mttr.back().complete) return false;
    }
    return true;
  };
  bool done = false;
  timed(spans,"mgmt", "fault.recover", 0, [&] {
    const sim::TimePoint deadline = fleet.sim.now() + sim::from_seconds(120);
    while (fleet.sim.now() < deadline && !(done = recovered())) {
      fleet.sim.run_for(sim::from_millis(50));
    }
  });
  fleet.sim.run_for(sim::from_seconds(2));
  r.gates.push_back({"every VM on a hung primary failed over and was re-protected",
                     done, ""});

  std::vector<double> mttr;
  std::size_t survivors = 0, survivors_committing = 0;
  for (const Watch& wt : watches) {
    if (wt.fails_over && wt.engine->failed_over()) {
      mttr.push_back(sim::to_millis(wt.engine->stats().replica_active_at - hang_at));
      activation_gate(wt.engine->stats(), "fleet", r);
    }
    if (wt.survivor) {
      // Any generation counts: a survivor may have been re-placed meanwhile.
      ++survivors;
      if (std::ranges::any_of(wt.protection->engines, [&](const auto& e) {
            const auto& checkpoints = e->stats().checkpoints;
            return !checkpoints.empty() && checkpoints.back().completed_at > hang_at;
          })) {
        ++survivors_committing;
      }
    }
  }
  r.metrics.set("fleet.lost_vms", static_cast<double>(lost), "vms", Kind::kCount);
  r.gates.push_back({"fleet survivors keep committing", survivors_committing == survivors,
                     std::to_string(survivors_committing) + "/" +
                         std::to_string(survivors)});
  r.metrics.set("mttr_ms", median(mttr), "ms", Kind::kVirtual, mttr.size());
  std::vector<double> reprotect;
  for (const auto& row : manager.fleet_report().reprotect_mttr) {
    if (row.complete) reprotect.push_back(sim::to_millis(row.mttr));
  }
  r.metrics.set("reprotect_ms", median(reprotect), "ms", Kind::kVirtual, reprotect.size());

  std::size_t violations = 0;
  std::uint64_t dropped = 0, resync_pages = 0, replayed = 0;
  for (const auto& p : manager.protections()) {
    if (p->primary != nullptr && p->secondary != nullptr &&
        p->primary->hypervisor().kind() == p->secondary->hypervisor().kind()) {
      ++violations;
    }
    for (const auto& e : p->engines) {
      dropped += e->stats().packets_dropped_at_failover + e->stats().packets_dropped_at_drain;
      resync_pages += e->stats().resync_pages;
      replayed += e->stats().wal_records_replayed;
    }
  }
  r.gates.push_back({"hetero_violations == 0", violations == 0,
                     std::to_string(violations) + " same-hypervisor pairs"});
  r.metrics.set("mgmt.hetero_violations", static_cast<double>(violations), "pairs",
                Kind::kCount);
  r.metrics.set("mgmt.replica_moves", static_cast<double>(manager.replica_moves()), "moves",
                Kind::kCount);
  r.metrics.set("mgmt.rebalance_deferred", static_cast<double>(manager.rebalance_deferred()),
                "moves", Kind::kCount);
  r.metrics.set("mgmt.membership_rounds",
                static_cast<double>(manager.membership()->rounds()), "rounds",
                Kind::kCount);
  r.metrics.set("dropped_at_failover", static_cast<double>(dropped), "packets",
                Kind::kCount);
  r.metrics.set("wal.records_replayed", static_cast<double>(replayed), "records",
                Kind::kCount);
  r.metrics.set("rejoin.resync_pages", static_cast<double>(resync_pages), "pages",
                Kind::kCount);
  return r;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kMemloadRaw: return "memload_raw";
    case Workload::kYcsbDurable: return "ycsb_durable";
    case Workload::kFleet100: return "fleet100";
  }
  return "?";
}

RepResult run_repetition(const RunOptions& options, SpanLog& spans) {
  switch (options.workload) {
    case Workload::kMemloadRaw: return run_memload(options, spans);
    case Workload::kYcsbDurable: return run_ycsb(options, spans);
    case Workload::kFleet100: return run_fleet(options, spans);
  }
  return {};
}

}  // namespace herebench
