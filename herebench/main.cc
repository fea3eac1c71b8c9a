// herebench: one workload per process.
//
//   herebench --workload memload_raw|ycsb_durable|fleet100 --seed N
//             --seconds S --trace 0|1 [--short] [--spans-out FILE]
//
// Repeats the workload's scenario with the same seed until S wall seconds
// are spent (at least twice), checks the correctness gates, and prints a
// human-readable table followed by one JSON line with every metric. With
// --trace 1 it alternates untraced and traced repetitions: end-to-end
// metrics always come from the untraced ones, per-layer metrics from the
// traced ones, and the sim_rate difference is the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"

namespace herebench {

void MetricTable::set(const std::string& name, double value, const std::string& unit,
                      Kind kind, std::uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, kind, samples};
      return;
    }
  }
  metrics_.push_back({name, value, unit, kind, samples});
}

const Metric* MetricTable::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void SpanLog::add(const char* layer, const char* name, std::uint64_t id,
                  Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({layer, name, id,
                    std::chrono::duration<double>(start - origin_).count(),
                    std::chrono::duration<double>(end - start).count()});
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"layer\":\"%s\",\"name\":\"%s\",\"id\":%llu,\"start_s\":%.9f,"
                  "\"dur_s\":%.9f}\n",
                  s.layer, s.name, static_cast<unsigned long long>(s.id), s.start_s,
                  s.dur_s);
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupSamples = 7;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kVirtual: return "virtual";
    case Kind::kCount: return "count";
    case Kind::kWall: return "wall";
  }
  return "?";
}

// Folds repetitions into one table: wall-clock metrics take the median,
// virtual-time and count metrics must repeat exactly (else a failed gate).
MetricTable fold(const std::vector<RepResult>& reps, std::vector<Gate>& gates,
                 const char* group) {
  MetricTable out;
  if (reps.empty()) return out;
  for (const Metric& m : reps.front().metrics.all()) {
    std::vector<double> values;
    for (const RepResult& r : reps) {
      const Metric* x = r.metrics.find(m.name);
      values.push_back(x != nullptr ? x->value : std::nan(""));
    }
    if (m.kind == Kind::kWall) {
      out.set(m.name, quantile(values, 0.5), m.unit, m.kind, values.size());
      continue;
    }
    const bool same = std::ranges::all_of(values, [&](double v) { return v == values[0]; });
    if (!same) {
      gates.push_back({std::string(group) + " repetitions repeat " + m.name, false,
                       json_number(values.front()) + " vs " + json_number(values.back())});
    }
    out.set(m.name, m.value, m.unit, m.kind, m.samples);
  }
  return out;
}

struct Args {
  RunOptions options;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  bool ok = true;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        a.ok = false;
        return {};
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string w = value();
      have_workload = true;
      if (w == "memload_raw") {
        a.options.workload = Workload::kMemloadRaw;
      } else if (w == "ycsb_durable") {
        a.options.workload = Workload::kYcsbDurable;
      } else if (w == "fleet100") {
        a.options.workload = Workload::kFleet100;
      } else {
        a.ok = false;
      }
    } else if (arg == "--seed") {
      a.options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--short") {
      a.options.short_run = true;
    } else if (arg == "--spans-out") {
      a.spans_out = value();
    } else {
      a.ok = false;
    }
  }
  a.ok = a.ok && have_workload;
  return a;
}

}  // namespace
}  // namespace herebench

int main(int argc, char** argv) {
  using namespace herebench;
  const Args args = parse(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: herebench --workload memload_raw|ycsb_durable|fleet100 "
                 "--seed N --seconds S --trace 0|1 [--short] [--spans-out FILE]\n");
    return 2;
  }

  // Untraced repetitions always run (end-to-end metrics); with --trace 1
  // traced ones alternate with them.
  SpanLog spans(args.trace);
  SpanLog no_spans(false);
  std::vector<RepResult> plain, traced;
  double peak_rss_mb = 0.0;
  const auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool do_trace = args.trace && rep % 2 == 1;
    RunOptions o = args.options;
    o.traced = do_trace;
    RepResult r = run_repetition(o, do_trace ? spans : no_spans);
    if (rep == 0) {
      // Taken after the first (untraced) repetition: the allocator keeps some
      // memory between repetitions, so a later reading would depend on how
      // many repetitions fit in the run.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    std::fprintf(stderr, "herebench: %s rep %d (%s) done at %.1f s\n",
                 workload_name(o.workload), rep, do_trace ? "traced" : "plain",
                 std::chrono::duration<double>(Clock::now() - start).count());
    (do_trace ? traced : plain).push_back(std::move(r));
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    const bool enough = args.trace ? !traced.empty() : plain.size() >= 2;
    if (enough && elapsed >= args.seconds && (!args.trace || rep % 2 == 1)) break;
  }
  // Set-up is short and noisy, so end-to-end runs add set-up-only
  // repetitions until setup_s has kSetupSamples samples.
  std::vector<RepResult> setups;
  if (!args.trace) {
    RunOptions o = args.options;
    o.setup_only = true;
    while (plain.size() + setups.size() < kSetupSamples) {
      setups.push_back(run_repetition(o, no_spans));
    }
  }

  std::vector<Gate> gates;
  std::uint64_t attempted = 0, failed = 0;
  for (const std::vector<RepResult>* group : {&plain, &traced, &setups}) {
    for (const RepResult& r : *group) {
      attempted += r.attempted;
      failed += r.failed;
      for (const Gate& g : r.gates) {
        const bool seen = std::ranges::any_of(gates, [&](const Gate& x) {
          return x.name == g.name && x.passed == g.passed;
        });
        if (!seen) gates.push_back(g);
      }
    }
  }
  MetricTable e2e = fold(plain, gates, "untraced");
  MetricTable layer = fold(traced, gates, "traced");
  if (!traced.empty()) {
    // Tracing must not change what the simulation computes.
    for (const Metric& m : e2e.all()) {
      const Metric* t = layer.find(m.name);
      if (m.kind != Kind::kWall && t != nullptr && t->value != m.value) {
        gates.push_back({"traced run repeats " + m.name, false,
                         json_number(m.value) + " vs " + json_number(t->value)});
      }
    }
    const double plain_rate = e2e.find("sim_rate")->value;
    const double traced_rate = layer.find("sim_rate")->value;
    layer.set("obs.tracing_overhead_pct", 100.0 * (plain_rate - traced_rate) / plain_rate,
              "%", Kind::kWall, traced.size());
  }
  e2e.set("peak_rss_mb", peak_rss_mb, "MB", Kind::kWall, 1);
  if (!setups.empty()) {
    std::vector<double> samples;
    for (const std::vector<RepResult>* group : {&plain, &setups}) {
      for (const RepResult& r : *group) samples.push_back(r.metrics.find("setup_s")->value);
    }
    e2e.set("setup_s", quantile(samples, 0.5), "s", Kind::kWall, samples.size());
  }

  if (!args.spans_out.empty() && args.trace && !spans.write_jsonl(args.spans_out)) {
    gates.push_back({"spans written", false, args.spans_out});
  }
  const bool correct =
      std::ranges::all_of(gates, [](const Gate& g) { return g.passed; });

  std::printf("herebench %s seed=%llu repetitions=%zu untraced + %zu traced\n",
              workload_name(args.options.workload),
              static_cast<unsigned long long>(args.options.seed), plain.size(),
              traced.size());
  for (const Gate& g : gates) {
    std::printf("  gate %-4s %s%s%s\n", g.passed ? "ok" : "FAIL", g.name.c_str(),
                g.detail.empty() ? "" : ": ", g.detail.c_str());
  }
  std::string json = "{\"workload\":" + json_string(workload_name(args.options.workload)) +
                     ",\"seed\":" + std::to_string(args.options.seed) +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed);
  auto emit = [&](const MetricTable& table, const char* key) {
    json += std::string(",\"") + key + "\":{";
    bool first = true;
    for (const Metric& m : table.all()) {
      json += std::string(first ? "" : ",") + json_string(m.name) + ":{\"value\":" +
              json_number(m.value) + ",\"unit\":" + json_string(m.unit) +
              ",\"kind\":\"" + kind_name(m.kind) + "\",\"samples\":" +
              std::to_string(m.samples) + "}";
      first = false;
    }
    json += "}";
  };
  emit(e2e, "untraced");
  emit(layer, "traced");
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
