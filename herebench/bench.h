// Shared types of the end-to-end benchmark (see README.md for the workloads
// and the layer -> metric map).
//
// One process runs one workload. A run repeats the workload's whole
// scenario (set-up, steady window, fault phase) until its wall-clock budget
// is spent; every repetition uses the same seed, so virtual-time and count
// metrics must repeat exactly (a correctness gate), while wall-clock metrics
// are reported as the median over repetitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hv/guest_memory.h"
#include "hv/hypervisor.h"
#include "replication/encoder.h"

namespace herebench {

enum class Workload : std::uint8_t { kMemloadRaw, kYcsbDurable, kFleet100 };

// How a metric may be compared across repetitions of the same seed.
enum class Kind : std::uint8_t {
  kVirtual,  // virtual-time result: identical across repetitions
  kCount,    // deterministic work count: identical across repetitions
  kWall,     // wall-clock measurement: median across repetitions
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kVirtual;
  std::uint64_t samples = 0;  // observations behind the value (0 = scalar)
};

// Ordered name -> metric table; later sets of a name overwrite.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           Kind kind, std::uint64_t samples = 0);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

struct Gate {
  std::string name;
  bool passed = false;
  std::string detail;
};

// Wall-clock spans the benchmark records around each call it makes into a
// layer. Kept in memory and written out as JSON lines when the run ends.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Clock::time_point now() const { return Clock::now(); }

  // `layer` and `name` must be string literals. `id` is the epoch (or other
  // sequence number) the span belongs to.
  void add(const char* layer, const char* name, std::uint64_t id,
           Clock::time_point start, Clock::time_point end);

  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    const char* name;
    std::uint64_t id;
    double start_s;
    double dur_s;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Runs fn(), recording it as a span in `log` when the log is enabled.
template <typename F>
void timed(SpanLog& log, const char* layer, const char* name, std::uint64_t id,
           F&& fn) {
  const auto start = log.now();
  fn();
  log.add(layer, name, id, start, log.now());
}

// Linear-interpolation quantile (q in [0, 1]); 0 for no values.
[[nodiscard]] double quantile(std::vector<double> values, double q);

struct RunOptions {
  Workload workload = Workload::kMemloadRaw;
  std::uint64_t seed = 1;
  bool traced = false;  // attach tracer + metrics registry, record spans
  bool short_run = false;  // shortened steady window (determinism self-test)
  bool setup_only = false;  // stop once every VM is seeded (extra setup_s samples)
};

// Input of the data-plane stage replay, captured by a traced repetition at
// the end of its steady window.
struct ReplayInput {
  const here::hv::GuestMemory* start_image = nullptr;  // window start
  const here::hv::GuestMemory* end_image = nullptr;    // window end (live VM)
  std::vector<std::uint64_t> epoch_dirty_pages;        // real pages per epoch
  here::rep::EncoderConfig encoders;                   // the workload's stream
  std::uint32_t threads = 4;                           // migrator threads P
  std::uint64_t seed = 1;
  // Machine state of a Xen primary and a KVM hypervisor to translate it for.
  const here::hv::SavedMachineState* machine_state = nullptr;
  const here::hv::Hypervisor* translation_target = nullptr;
};

// Re-drives the data-plane public functions on the workload's own pages and
// sets the wall-clock per-layer metrics (plus the stage self-check gate).
void run_stage_replay(const ReplayInput& input, SpanLog& spans,
                      MetricTable& out, std::vector<Gate>& gates);

// Result of one repetition of a workload's scenario.
struct RepResult {
  MetricTable metrics;
  std::vector<Gate> gates;
  std::uint64_t attempted = 0;  // steady-window epochs attempted
  std::uint64_t failed = 0;     // of those: aborted or refused
};

RepResult run_repetition(const RunOptions& options, SpanLog& spans);

[[nodiscard]] const char* workload_name(Workload workload);

}  // namespace herebench
