// detlint — repo-specific determinism & concurrency lint for the HERE tree.
//
// The simulation's core contract is that every run is byte-identical per
// seed: traces, metrics snapshots, wire digests and failover decisions all
// assume it. The compiler does not check that contract; detlint does, with
// rules tuned to this repository. The analyzer runs in two passes:
//
//  * a per-file lexical pass (comments/strings stripped, line structure
//    preserved) drives the D-rules below and extracts facts — mutex and CV
//    declarations, lock/wait/submit sites, function boundaries, call sites,
//    switches, enum definitions, the machine-readable rank table;
//  * a whole-tree pass stitches those facts into a symbol table and an
//    intra-module call graph, propagates held-rank sets through it, and
//    drives the L- and P-rules plus the suppression ledger.
//
// Per-file rules (token/regex level):
//
//   D1 wall-clock        no system_clock/steady_clock/time()/gettimeofday
//                        outside the obs exporters allowlist — simulated
//                        time (sim::TimePoint) is the only clock.
//   D2 rng               no rand()/std::random_device/std::mt19937 outside
//                        src/sim/rng — one seeded xoshiro stream per
//                        subsystem, or reproducibility dies quietly.
//   D3 unordered-iter    no iteration over std::unordered_map/set in files
//                        that emit wire frames, digests, metrics JSON or
//                        trace events (iteration order is unspecified, so
//                        emission order would vary run to run).
//   D4 discarded-status  no bare-statement calls to Status/Expected-
//                        returning control-plane APIs, and no Status/
//                        Expected-returning declaration without
//                        [[nodiscard]] in headers.
//   D5 env-sleep         no getenv / sleep_for / std::this_thread outside
//                        common/thread_pool — hidden environment reads and
//                        real-time waits are nondeterminism smuggled in
//                        through the back door.
//
// Whole-tree rules (symbol table + call graph; scan() only — scan_file()
// cannot see across files and therefore skips them):
//
//   L1 lock-order        a RankedMutex acquisition statically reachable (via
//                        the call graph) while an equal-or-higher rank is
//                        already held — the runtime checker catches these
//                        only on paths a test happens to execute; this rule
//                        catches them on every path.
//   L2 rank-table        drift around src/common/lock_rank.h's declared
//                        table: raw std::mutex/std::condition_variable on a
//                        data-plane path, a RankedMutex constructed with an
//                        undeclared rank symbol, a name string that
//                        contradicts the table, or a declared rank that no
//                        code constructs (dead slot).
//   L3 lock-across-submit a ranked mutex held across ThreadPool::submit /
//                        parallel_for (directly or through callees) — the
//                        queued task runs on a worker that may need the
//                        same lock: the classic self-deadlock-by-enqueue.
//   L4 cv-wait-held      a condition-variable wait while any ranked mutex
//                        other than the waited-on one is held (the notifier
//                        may need that mutex to reach its notify).
//   P1 exhaustive        a switch over a protocol enum (frame verdicts,
//                        fault kinds, engine modes and lifecycle phases,
//                        recovery states) that misses an
//                        enumerator — the next wire kind or fault kind must
//                        not be silently unhandled in dispatch.
//   P2 verified-apply    a write to committed-image state in staging /
//                        recovery code that is not preceded by a digest/CRC
//                        verification in the same function and not blessed
//                        with `// detlint: verified-by(<fn>)` naming a
//                        verifying caller (refuse-before-apply, statically).
//
// Suppression hygiene:
//
//   SUP  suppression       a malformed "detlint:" directive.
//   SUP2 stale-suppression an `allow(...)` that no longer masks any finding
//                          (scan() only): dead waivers rot into lies.
//
// Any finding can be waived in place, with a reason, via
//   // detlint: allow(<rule>[,<rule>...]) -- <why>
// on the offending line or the line directly above it. <rule> is the id
// ("D3", "L1") or the name ("unordered-iter", "lock-order"). A suppression
// without a reason is itself a finding. File markers:
//   // detlint: emitter         opt into D3's emitter set
//   // detlint: data-plane      arm L2 for this file (fixtures/tests)
//   // detlint: staging         arm P2 for this file (fixtures/tests)
//   // detlint: rank-table      this file's HERE_LOCK_RANK_TABLE entries
//                               are (part of) the declared rank table
//   // detlint: verified-by(f)  the next function's committed-state writes
//                               are verified by caller `f` (P2)
//
// The scanner strips comments and string literals before matching, so prose
// mentioning forbidden identifiers never fires.
#pragma once

#include <string>
#include <vector>

namespace detlint {

enum class Rule {
  kWallClock,         // D1
  kRng,               // D2
  kUnorderedIter,     // D3
  kDiscard,           // D4
  kEnvSleep,          // D5
  kLockOrder,         // L1
  kRankTable,         // L2
  kLockAcrossSubmit,  // L3
  kCvWaitHeld,        // L4
  kExhaustiveSwitch,  // P1
  kVerifiedApply,     // P2
  kSuppression,       // SUP  — malformed "detlint:" comment
  kStaleSuppression,  // SUP2 — allow(...) masking no finding
};

[[nodiscard]] const char* rule_id(Rule rule);    // "D1".."D5", "L1".."L4", ...
[[nodiscard]] const char* rule_name(Rule rule);  // "wall-clock", ...

struct Finding {
  std::string path;  // display path (repo-relative, forward slashes)
  int line = 0;      // 1-based
  Rule rule{};
  std::string message;
};

// Extra context for one file's scan.
struct FileContext {
  // Identifiers declared as unordered containers in the file's sibling
  // header (X.h next to X.cc) — D3 must see members, not just locals.
  std::vector<std::string> sibling_unordered_names;
};

// Scans a single file's content with the per-file D-rules only. The
// whole-tree L/P rules and stale-suppression detection need the full scan()
// entry point. `display_path` drives the per-rule allowlists and the emitter
// classification.
[[nodiscard]] std::vector<Finding> scan_file(const std::string& display_path,
                                             const std::string& content,
                                             const FileContext& ctx = {});

struct Options {
  std::string root = ".";
  // Files or directories, relative to root (or absolute).
  std::vector<std::string> targets = {"src", "bench", "tests"};
  // Skipped while *recursing* into directories. An explicitly named target
  // is always scanned — that is how the fixture suite lints files that are
  // intentionally in violation.
  std::vector<std::string> recursion_excludes = {"tests/analysis/fixtures"};
};

// One `// detlint: allow(...)` directive, for the suppression ledger.
// Every suppression in the scanned set appears here, stale or not, so CI
// can publish the tree's full suppression debt per PR.
struct SuppressionEntry {
  std::string path;
  int line = 0;
  std::vector<std::string> rules;  // canonical ids ("D3", "L1", ...)
  std::string reason;
  bool stale = false;  // masked no finding in this scan
};

struct ScanResult {
  std::vector<Finding> findings;  // sorted by (path, line, rule)
  int files_scanned = 0;
  std::vector<std::string> errors;  // unreadable paths, bad targets
  std::vector<SuppressionEntry> ledger;  // sorted by (path, line)
};

[[nodiscard]] ScanResult scan(const Options& options);

// Serializes findings + ledger as a JSON report (for --report-json and the
// CI suppression-ledger artifact). `ledger_only` drops the findings array,
// line numbers and staleness, leaving the stable (path, rules, reason)
// ledger used as the committed baseline (line numbers churn on unrelated
// edits; reasons and rule sets only change when a human touches the waiver).
[[nodiscard]] std::string report_json(const ScanResult& result,
                                      bool ledger_only = false);

// Exposed for tests: identifiers declared as std::unordered_{map,set} in
// `content`, and whether a path belongs to D3's emitter set.
[[nodiscard]] std::vector<std::string> unordered_names(
    const std::string& content);
[[nodiscard]] bool is_emitter_path(const std::string& display_path);

}  // namespace detlint
