// Ablation: content-aware checkpoint encoders vs interconnect bandwidth.
//
// The encoders attack α in t = αN/P + C: a collapsed page (zero-elided,
// hash-skipped, or XOR-delta'd against the committed shadow) never pays the
// 4 KiB stream copy — only its encoder cycles — and ships a header or a few
// delta bytes instead of the page. On the paper's 100 Gbit/s Omni-Path the
// copy is CPU-bound, so the win is pure CPU; on a 10 GbE replication link
// the wire is the bottleneck and the byte reduction dominates.
//
// Acceptance (mirrors tests/replication/encoder_roundtrip_test.cc): with
// all encoders stacked on a 10 GbE wire, the mean checkpoint pause must be
// strictly lower than the un-encoded baseline.
//
// With --bench-out=FILE the sweep's scalars land in a flat JSON file; the
// run is deterministic simulation, so CI executes the binary twice and
// requires the two files byte-identical.
#include <string>

#include "bench/bench_util.h"
#include "replication/encoder.h"

namespace {

using namespace here;
using namespace here::bench;

struct Variant {
  const char* name;           // bench-value key fragment and table column
  rep::EncoderConfig encoders;
};

constexpr double kMeasureSeconds = 30.0;

struct CellResult {
  double mean_pause_ms = 0.0;
  double wire_ratio = 1.0;    // encoded bytes / raw bytes (1.0 when off)
};

CellResult run(double wire_gbps, const Variant& v) {
  rep::TestbedConfig tb;
  tb.vm_spec = paper_vm(8.0);
  tb.engine.mode = rep::EngineMode::kHere;
  tb.engine.checkpoint_threads = 4;
  tb.engine.period.t_max = sim::from_seconds(5);
  tb.engine.encoders = v.encoders;
  tb.engine.time_model.wire_bytes_per_second = wire_gbps * 1e9 / 8.0;
  rep::Testbed bed(tb);

  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(30)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(kMeasureSeconds));

  const auto& cps = bed.engine().stats().checkpoints;
  if (cps.empty()) {
    // Dividing by cps.size() here used to be a silent NaN on a stalled
    // engine; fail loudly instead.
    std::fprintf(stderr,
                 "ablation_compression: no checkpoints committed at "
                 "%.0f Gbit/s (%s) — engine stalled or period misconfigured\n",
                 wire_gbps, v.name);
    std::abort();
  }
  double t_ms = 0;
  for (const auto& r : cps) t_ms += sim::to_millis(r.pause);

  CellResult cell;
  cell.mean_pause_ms = t_ms / static_cast<double>(cps.size());
  const rep::EncodeStats& enc = bed.engine().stats().encode;
  if (enc.bytes_in > 0) {
    cell.wire_ratio = static_cast<double>(enc.bytes_out) /
                      static_cast<double>(enc.bytes_in);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);

  const Variant variants[] = {
      {"null", rep::EncoderConfig{}},
      {"zero", rep::EncoderConfig{.zero_elide = true}},
      {"delta", rep::EncoderConfig{.delta = true}},
      {"hash_skip", rep::EncoderConfig{.hash_skip = true}},
      {"stacked", rep::EncoderConfig::all()},
  };

  print_title(
      "Ablation: content-aware encoders vs interconnect bandwidth "
      "(8 GB VM, 30% load, T = 5 s, P = 4)");
  std::printf("%-14s", "Interconnect");
  for (const Variant& v : variants) std::printf(" %12s", v.name);
  std::printf(" %10s\n", "verdict");

  bool ok = true;
  for (const double gbps : {100.0, 25.0, 10.0}) {
    double null_pause = 0.0;
    double stacked_pause = 0.0;
    std::printf("%-11.0f G ", gbps);
    for (const Variant& v : variants) {
      const CellResult cell = run(gbps, v);
      const std::string prefix = "encoder_ablation." +
                                 std::to_string(static_cast<int>(gbps)) +
                                 "g." + v.name + ".";
      obs.bench_value(prefix + "pause_ms", cell.mean_pause_ms);
      obs.bench_value(prefix + "wire_ratio", cell.wire_ratio);
      if (std::string(v.name) == "null") null_pause = cell.mean_pause_ms;
      if (std::string(v.name) == "stacked") stacked_pause = cell.mean_pause_ms;
      std::printf(" %9.2f ms", cell.mean_pause_ms);
    }
    // The stacked encoders must never lose to the raw stream; on the thin
    // 10 GbE wire the win must be strict (the roundtrip test pins the same
    // property at the engine level).
    const bool pass = gbps > 10.0 ? stacked_pause <= null_pause
                                  : stacked_pause < null_pause;
    ok = ok && pass;
    std::printf(" %10s\n", pass ? "ok" : "FAIL");
  }

  std::printf(
      "\nOn the paper's 100 Gbit/s fabric the copy is CPU-bound: collapsed\n"
      "pages skip the stream copy, so the encoders win on CPU alone. On thin\n"
      "pipes the wire dominates and the encoded stream's byte reduction is\n"
      "decisive.\n");
  if (!ok) std::printf("\nENCODER ABLATION: acceptance FAILED\n");
  const bool finished = obs.finish();
  return ok && finished ? 0 : 1;
}
