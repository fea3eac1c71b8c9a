// In-process tests for the detlint scanner: each rule must fire on its
// fixture, suppressions must silence, and the real tree must scan clean.
// The fixtures live in tests/analysis/fixtures/ and are never compiled.
#include "detlint/detlint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using detlint::Finding;
using detlint::Rule;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> scan_fixture(const std::string& name) {
  const std::string display = "tests/analysis/fixtures/" + name;
  return detlint::scan_file(
      display, read_file(std::string(HERE_SOURCE_DIR) + "/" + display));
}

std::vector<int> lines_for(const std::vector<Finding>& findings, Rule rule) {
  std::vector<int> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(DetlintTest, WallClockFixtureFires) {
  const auto findings = scan_fixture("d1_wall_clock.cc");
  EXPECT_EQ(findings.size(), 2u);
  // steady_clock and time(nullptr) fire; the allow(D1) block stays silent.
  EXPECT_EQ(lines_for(findings, Rule::kWallClock), (std::vector<int>{7, 12}));
}

TEST(DetlintTest, RngFixtureFires) {
  const auto findings = scan_fixture("d2_rng.cc");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(lines_for(findings, Rule::kRng).size(), 3u);
}

TEST(DetlintTest, UnorderedIterFixtureFires) {
  const auto findings = scan_fixture("d3_unordered_iter.cc");
  // The fixture path is outside the built-in emitter prefixes; the
  // `// detlint: emitter` marker is what arms D3 here.
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(lines_for(findings, Rule::kUnorderedIter).size(), 2u);
}

TEST(DetlintTest, DiscardFixtureFires) {
  const auto findings = scan_fixture("d4_discard.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kDiscard);
  // The assigned call and the waived call must not fire.
  EXPECT_EQ(findings[0].line, 10);
}

TEST(DetlintTest, NodiscardHeaderFixtureFires) {
  const auto findings = scan_fixture("d4_nodiscard.h");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(lines_for(findings, Rule::kDiscard), (std::vector<int>{8, 12, 15}));
}

TEST(DetlintTest, EnvSleepFixtureFires) {
  const auto findings = scan_fixture("d5_env_sleep.cc");
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(lines_for(findings, Rule::kEnvSleep), (std::vector<int>{8, 12}));
}

TEST(DetlintTest, SuppressedFixtureIsClean) {
  EXPECT_TRUE(scan_fixture("suppressed_clean.cc").empty());
}

TEST(DetlintTest, MalformedSuppressionIsAFinding) {
  const auto findings = scan_fixture("malformed_suppression.cc");
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(lines_for(findings, Rule::kSuppression), (std::vector<int>{5, 10}));
}

TEST(DetlintTest, CommentsAndStringsNeverFire) {
  const auto findings = detlint::scan_file(
      "src/replication/x.cc",
      "// steady_clock mentioned in prose\n"
      "const char* s = \"rand() time(nullptr) getenv\";\n"
      "/* std::mt19937 inside a block comment */\n");
  EXPECT_TRUE(findings.empty());
}

TEST(DetlintTest, AllowlistedPathsAreExempt) {
  EXPECT_TRUE(detlint::scan_file("src/obs/export.cc",
                                 "auto t = std::chrono::system_clock::now();\n")
                  .empty());
  EXPECT_TRUE(detlint::scan_file("src/sim/rng.cc", "std::mt19937 g{1};\n")
                  .empty());
  EXPECT_TRUE(
      detlint::scan_file("src/common/thread_pool.cc",
                         "std::this_thread::sleep_for(t);\n")
          .empty());
  // The same content outside the allowlist fires.
  EXPECT_EQ(detlint::scan_file("src/hv/x.cc", "std::mt19937 g{1};\n").size(),
            1u);
}

TEST(DetlintTest, EmitterPathClassification) {
  EXPECT_TRUE(detlint::is_emitter_path("src/obs/metrics.cc"));
  EXPECT_TRUE(detlint::is_emitter_path("src/replication/staging.cc"));
  EXPECT_FALSE(detlint::is_emitter_path("src/sim/event_queue.cc"));
  EXPECT_FALSE(detlint::is_emitter_path("tests/analysis/fixtures/d2_rng.cc"));
}

TEST(DetlintTest, UnorderedNamesExtraction) {
  const auto names = detlint::unordered_names(
      "std::unordered_map<std::string, int> by_name_;\n"
      "std::unordered_set<int> live_;\n"
      "std::map<int, int> ordered_;\n");
  EXPECT_EQ(names, (std::vector<std::string>{"by_name_", "live_"}));
}

TEST(DetlintTest, UnorderedNamesTrackAliases) {
  const auto names = detlint::unordered_names(
      "using PageMap = std::unordered_map<int, int>;\n"
      "typedef std::unordered_set<int> GfnSet;\n"
      "using LiveMap = PageMap;\n"  // alias of an alias
      "PageMap pages_;\n"
      "GfnSet live_;\n"
      "LiveMap shadow_;\n"
      "std::map<int, int> ordered_;\n");
  // Discovery order: `using` aliases first (PageMap, then LiveMap through
  // it), then typedefs — the set is what matters, the order is fixed.
  EXPECT_EQ(names,
            (std::vector<std::string>{"pages_", "shadow_", "live_"}));
}

TEST(DetlintTest, TemplateAliasVariablesAreTracked) {
  const auto names = detlint::unordered_names(
      "template <typename V>\n"
      "using ByName = std::unordered_map<std::string, V>;\n"
      "ByName<int> counts_;\n");
  EXPECT_EQ(names, (std::vector<std::string>{"counts_"}));
}

TEST(DetlintTest, OrderedAliasOfUnorderedValueIsNotTracked) {
  // The *head* type decides: a std::map whose values are unordered maps
  // iterates deterministically, so its variables must stay untracked.
  const auto names = detlint::unordered_names(
      "using PageMap = std::unordered_map<int, int>;\n"
      "using SortedIndex = std::map<int, PageMap>;\n"
      "SortedIndex index_;\n");
  EXPECT_EQ(names, (std::vector<std::string>{}));
}

TEST(DetlintTest, AliasRangeForFiresInEmitterFile) {
  const auto findings = detlint::scan_file(
      "src/obs/foo.cc",
      "using PageMap = std::unordered_map<int, int>;\n"
      "PageMap pages_;\n"
      "void dump() { for (const auto& e : pages_) { use(e); } }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kUnorderedIter);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(DetlintTest, SiblingHeaderMembersAreVisibleToD3) {
  detlint::FileContext ctx;
  ctx.sibling_unordered_names = {"by_id_"};
  const auto findings = detlint::scan_file(
      "src/obs/foo.cc", "for (const auto& e : by_id_) { use(e); }\n", ctx);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kUnorderedIter);
}

// ---------------------------------------------------------------------
// Whole-tree rules (L1-L4, P1-P2): these need the two-pass scan(), so the
// tests target individual fixtures through the library entry point.
// ---------------------------------------------------------------------

detlint::ScanResult scan_targets(std::vector<std::string> targets) {
  detlint::Options options;
  options.root = HERE_SOURCE_DIR;
  options.targets = std::move(targets);
  return detlint::scan(options);
}

TEST(DetlintTest, LockOrderFixtureFires) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/l1_lock_order.cc"});
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(lines_for(result.findings, Rule::kLockOrder),
            (std::vector<int>{13, 19}));
  // The second inversion is only reachable through the call graph; the
  // finding must carry its provenance chain.
  EXPECT_NE(result.findings[1].message.find("reached via fix_l1_via_call"),
            std::string::npos);
}

// A class split across TUs without sibling headers: members and receivers
// resolve through the header that defines the class, so the owner's lock is
// tracked and store_.fix_ch_put() edges into FixChStore only — one L1, at
// the store's acquisition, reached from fix_ch_run and not fix_ch_quiet.
TEST(DetlintTest, ClassHeaderMembersResolveInEveryTu) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/class_header"});
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, Rule::kLockOrder);
  EXPECT_EQ(f.path, "tests/analysis/fixtures/class_header/fix_ch_store.cc");
  EXPECT_EQ(f.line, 5);
  EXPECT_NE(f.message.find("fix_ch_run"), std::string::npos) << f.message;
  EXPECT_EQ(f.message.find("fix_ch_quiet"), std::string::npos) << f.message;
}

TEST(DetlintTest, RankTableFixtureFires) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/l2_rank_table.cc"});
  // Dead table entry (9), raw mutex (14), raw cv (15), name drift (18),
  // undeclared symbol (20).
  EXPECT_EQ(lines_for(result.findings, Rule::kRankTable),
            (std::vector<int>{9, 14, 15, 18, 20}));
  EXPECT_EQ(result.findings.size(), 5u);
}

TEST(DetlintTest, LockAcrossSubmitFixtureFires) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/l3_lock_across_submit.cc"});
  // Manual lock (13) and guard (19) both span a submit; the scope-closed
  // variant stays silent.
  EXPECT_EQ(lines_for(result.findings, Rule::kLockAcrossSubmit),
            (std::vector<int>{13, 19}));
  EXPECT_EQ(result.findings.size(), 2u);
}

// A std::unique_ptr member types as its pointee: the call through `pool_`
// reaches the pool's submit with the ranked mutex held (one L3, carrying
// its chain), while the same-named method through the std::shared_ptr
// `log_` edges only into the log's, which submits nothing. Untyped, both
// calls would resolve to both methods by name and both would fire.
TEST(DetlintTest, SmartPointerReceiverCarriesL3) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/l3_unique_ptr_submit.cc"});
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.rule, Rule::kLockAcrossSubmit);
  EXPECT_EQ(f.line, 23);
  EXPECT_NE(f.message.find("FixL3uStaging::fix_l3u_commit"), std::string::npos)
      << f.message;
  EXPECT_EQ(f.message.find("fix_l3u_flush"), std::string::npos) << f.message;
}

TEST(DetlintTest, CvWaitHeldFixtureFires) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/l4_cv_wait_held.cc"});
  // Only the wait holding a second ranked mutex fires; the sole-mutex wait
  // is the legal shape.
  EXPECT_EQ(lines_for(result.findings, Rule::kCvWaitHeld),
            (std::vector<int>{18}));
  EXPECT_EQ(result.findings.size(), 1u);
}

TEST(DetlintTest, ExhaustiveSwitchFixtureFires) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/p1_exhaustive.cc"});
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, Rule::kExhaustiveSwitch);
  EXPECT_EQ(result.findings[0].line, 7);
  // default: does not excuse the gap, and the message names the gap.
  EXPECT_NE(result.findings[0].message.find("kCorrupt"), std::string::npos);
}

// Enumerators on their own lines (after a newline, not only blanks) still
// count, so a multi-line protocol enum is checked at all.
TEST(DetlintTest, ExhaustiveSwitchSeesMultiLineEnums) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/p1_multiline_enum.cc"});
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, Rule::kExhaustiveSwitch);
  EXPECT_EQ(result.findings[0].line, 11);
  EXPECT_NE(result.findings[0].message.find("kDrained"), std::string::npos);
}

TEST(DetlintTest, VerifiedApplyFixtureFires) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/p2_verified_apply.cc"});
  // Unverified write (11) and a verified-by naming a nonexistent function
  // (19); the gated and validly-blessed writes stay silent.
  EXPECT_EQ(lines_for(result.findings, Rule::kVerifiedApply),
            (std::vector<int>{11, 19}));
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(DetlintTest, StaleSuppressionFixtureFires) {
  const auto result =
      scan_targets({"tests/analysis/fixtures/stale_suppression.cc"});
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, Rule::kStaleSuppression);
  EXPECT_EQ(result.findings[0].line, 4);
}

TEST(DetlintTest, SuppressedLockRulesAreClean) {
  EXPECT_TRUE(
      scan_targets({"tests/analysis/fixtures/l_suppressed_clean.cc"})
          .findings.empty());
}

TEST(DetlintTest, SuppressedProtocolRulesAreClean) {
  EXPECT_TRUE(
      scan_targets({"tests/analysis/fixtures/p_suppressed_clean.cc"})
          .findings.empty());
}

TEST(DetlintTest, StaleSuppressionCanItselfBeWaived) {
  EXPECT_TRUE(
      scan_targets({"tests/analysis/fixtures/stale_suppressed_clean.cc"})
          .findings.empty());
}

// ---------------------------------------------------------------------
// Stripping regressions: backslash-continued comments and adjacent string
// literals must neither leak tokens nor shift line numbers.
// ---------------------------------------------------------------------

TEST(DetlintTest, ContinuedCommentSwallowsItsContinuationLine) {
  EXPECT_TRUE(
      scan_targets({"tests/analysis/fixtures/strip_line_continuation.cc"})
          .findings.empty());
}

TEST(DetlintTest, ContinuedCommentPreservesLineNumbers) {
  const auto findings = detlint::scan_file(
      "src/hv/x.cc",
      "// comment continues \\\n"
      "   rand(); this line is comment text\n"
      "std::mt19937 g{1};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kRng);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(DetlintTest, AdjacentStringLiteralsDoNotLeakTokens) {
  EXPECT_TRUE(
      scan_targets({"tests/analysis/fixtures/strip_string_concat.cc"})
          .findings.empty());
  EXPECT_TRUE(detlint::scan_file("src/hv/x.cc",
                                 "const char* s = \"rand()\" \" time(nullptr)\""
                                 " \"// detlint: emitter\";\n")
                  .empty());
}

// ---------------------------------------------------------------------
// Suppression ledger: every allow() is reported, stale ones are flagged,
// and the committed baseline view drops volatile fields.
// ---------------------------------------------------------------------

TEST(DetlintTest, LedgerMarksStaleSuppressions) {
  const auto result = scan_targets({"tests/analysis/fixtures"});
  bool saw_stale = false;
  bool saw_live = false;
  bool saw_waived_stale = false;
  for (const detlint::SuppressionEntry& e : result.ledger) {
    if (e.path == "tests/analysis/fixtures/stale_suppression.cc") {
      EXPECT_TRUE(e.stale);
      saw_stale = true;
    }
    if (e.path == "tests/analysis/fixtures/l_suppressed_clean.cc") {
      EXPECT_FALSE(e.stale) << "line " << e.line;
      saw_live = true;
    }
    if (e.path == "tests/analysis/fixtures/stale_suppressed_clean.cc") {
      // Listing stale-suppression exempts the waiver from staleness.
      EXPECT_FALSE(e.stale);
      saw_waived_stale = true;
    }
  }
  EXPECT_TRUE(saw_stale);
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_waived_stale);
}

TEST(DetlintTest, LedgerOnlyJsonOmitsVolatileFields) {
  const auto result = scan_targets({"tests/analysis/fixtures"});
  const std::string full = detlint::report_json(result);
  const std::string baseline = detlint::report_json(result, true);
  EXPECT_NE(full.find("\"findings\""), std::string::npos);
  EXPECT_NE(full.find("\"stale\""), std::string::npos);
  // The committed-baseline view must be stable across unrelated edits:
  // no line numbers, no stale flags, no findings.
  EXPECT_EQ(baseline.find("\"findings\""), std::string::npos);
  EXPECT_EQ(baseline.find("\"line\""), std::string::npos);
  EXPECT_EQ(baseline.find("\"stale\""), std::string::npos);
  EXPECT_NE(baseline.find("\"suppressions\""), std::string::npos);
}

// The acceptance gate in test form: the shipped tree has zero findings.
// (ctest also runs the detlint binary itself; this covers the library path
// including directory recursion and sibling-header context plumbing.)
TEST(DetlintTest, RepositoryTreeIsClean) {
  detlint::Options options;
  options.root = HERE_SOURCE_DIR;
  const detlint::ScanResult result = detlint::scan(options);
  EXPECT_TRUE(result.errors.empty());
  for (const Finding& f : result.findings) {
    ADD_FAILURE() << f.path << ":" << f.line << ": ["
                  << detlint::rule_id(f.rule) << "] " << f.message;
  }
  EXPECT_GT(result.files_scanned, 100);
}

// And the inverse: explicitly targeting the fixture directory bypasses the
// recursion exclude and must produce findings (mirrors the WILL_FAIL ctest).
TEST(DetlintTest, FixtureDirectoryFiresWhenTargeted) {
  detlint::Options options;
  options.root = HERE_SOURCE_DIR;
  options.targets = {"tests/analysis/fixtures"};
  const detlint::ScanResult result = detlint::scan(options);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_GE(result.findings.size(), 33u);
}

}  // namespace
