// Tests for the buslint rules: each seeded-violation fixture must fire its rule,
// the clean fixtures must not, and the allowlist comment must suppress.
#include "tools/buslint/buslint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ibus::buslint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(BUSLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Violation> LintFixture(const std::string& rel_path, const std::string& name) {
  return LintSource(rel_path, ReadFixture(name));
}

size_t CountRule(const std::vector<Violation>& vs, const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(vs.begin(), vs.end(), [&](const Violation& v) { return v.rule == rule; }));
}

std::string Render(const std::vector<Violation>& vs) {
  std::string out;
  for (const auto& v : vs) {
    out += v.ToString() + "\n";
  }
  return out;
}

TEST(BuslintNondeterminism, FiresOnPrimitivesInDeterministicCore) {
  auto vs = LintFixture("src/sim/nondet_sim.cc", "nondet_sim.cc");
  // srand, std::rand, steady_clock, std::getenv — the allow()'d getenv is suppressed.
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 4u) << Render(vs);
}

TEST(BuslintNondeterminism, FiresInCapturePlane) {
  // src/capture feeds the replay gate's capture hashes, so it is deterministic core:
  // wall clocks and env lookups must trip the rule there exactly as in src/sim.
  auto vs = LintFixture("src/capture/nondet_capture.cc", "nondet_capture.cc");
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 3u) << Render(vs);
}

TEST(BuslintNondeterminism, FiresInJournal) {
  // src/journal's flush/durability timing feeds the replay gate, so the write-ahead
  // ledger is deterministic core: clocks and ambient RNGs trip the rule there.
  auto vs = LintFixture("src/journal/nondet_journal.cc", "nondet_journal.cc");
  // clock_gettime, mt19937, time() — the allow()'d getenv is suppressed.
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 3u) << Render(vs);
}

TEST(BuslintNondeterminism, FiresInProfiler) {
  // src/prof's stage decomposition feeds busprof's replay-gated hashes, so the
  // profiler is deterministic core: clocks and ambient RNGs trip the rule there.
  auto vs = LintFixture("src/prof/nondet_prof.cc", "nondet_prof.cc");
  // clock_gettime, mt19937, time() — the allow()'d getenv is suppressed.
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 3u) << Render(vs);
}

TEST(BuslintNondeterminism, ProfilerTwinIsSilentOutsideCore) {
  // The same source under the CLI tool's path must not fire.
  auto vs = LintFixture("tools/busprof/nondet_prof.cc", "nondet_prof.cc");
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 0u) << Render(vs);
}

TEST(BuslintNondeterminism, JournalTwinIsSilentOutsideCore) {
  // The same source under a non-core path (a tool) must not fire.
  auto vs = LintFixture("tools/busjournal/nondet_journal.cc", "nondet_journal.cc");
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 0u) << Render(vs);
}

TEST(BuslintNondeterminism, FiresInStatsPlane) {
  // src/telemetry's sketches, histograms, and the busstat keyframe/delta stream feed
  // busstat's replay-gated hashes, so the stats plane is deterministic core: wall
  // clocks and ambient RNGs trip the rule there.
  auto vs = LintFixture("src/telemetry/nondet_stats.cc", "nondet_stats.cc");
  // system_clock, mt19937_64, rand() — the allow()'d getenv is suppressed.
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 3u) << Render(vs);
}

TEST(BuslintNondeterminism, StatsTwinIsSilentOutsideCore) {
  // The same source under the CLI tool's path must not fire.
  auto vs = LintFixture("tools/busstat/nondet_stats.cc", "nondet_stats.cc");
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 0u) << Render(vs);
}

TEST(BuslintNondeterminism, SilentOutsideDeterministicCore) {
  auto vs = LintFixture("bench/nondet_sim.cc", "nondet_sim.cc");
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 0u) << Render(vs);
}

TEST(BuslintNondeterminism, AllowCommentSuppressesSingleLine) {
  auto vs = LintSource("src/bus/x.cc",
                       "int a() { return rand(); }\n"
                       "int b() { return rand(); }  // buslint: allow(nondeterminism)\n");
  ASSERT_EQ(CountRule(vs, kRuleNondeterminism), 1u) << Render(vs);
  EXPECT_EQ(vs[0].line, 1);
}

TEST(BuslintSubjectLiteral, FiresOnBadLiterals) {
  auto vs = LintFixture("src/services/bad_subject.cc", "bad_subject.cc");
  EXPECT_EQ(CountRule(vs, kRuleSubjectLiteral), 4u) << Render(vs);
}

TEST(BuslintSubjectLiteral, ValidatesPatternsAndSubjectsDifferently) {
  // A wildcard is fine in Subscribe but a violation in Publish.
  auto ok = LintSource("a.cc", "void f(B* b) { b->Subscribe(\"news.*\", h); }\n");
  EXPECT_EQ(CountRule(ok, kRuleSubjectLiteral), 0u) << Render(ok);
  auto bad = LintSource("a.cc", "void f(B* b) { b->Publish(\"news.*\", p); }\n");
  EXPECT_EQ(CountRule(bad, kRuleSubjectLiteral), 1u) << Render(bad);
}

TEST(BuslintDecodePair, FiresOncePerMissingDecoder) {
  auto vs = LintFixture("src/wire/missing_decoder.h", "missing_decoder.h");
  EXPECT_EQ(CountRule(vs, kRuleDecodePair), 3u) << Render(vs);
}

TEST(BuslintDecodePair, SilentWhenPairedOrInNonHeader) {
  auto paired = LintFixture("src/wire/paired_codec.h", "paired_codec.h");
  EXPECT_EQ(CountRule(paired, kRuleDecodePair), 0u) << Render(paired);
  // The same orphan declarations in a .cc are call sites, not wire contracts.
  auto cc = LintFixture("src/wire/missing_decoder.cc", "missing_decoder.h");
  EXPECT_EQ(CountRule(cc, kRuleDecodePair), 0u) << Render(cc);
}

TEST(BuslintDecodeChecked, FiresOnDiscardedResults) {
  auto vs = LintFixture("src/proto/ignored_decode.cc", "ignored_decode.cc");
  EXPECT_EQ(CountRule(vs, kRuleDecodeChecked), 2u) << Render(vs);
}

TEST(BuslintRawNewDelete, FiresOutsideFactoryIdiom) {
  auto vs = LintFixture("src/common/raw_new.cc", "raw_new.cc");
  EXPECT_EQ(CountRule(vs, kRuleRawNewDelete), 3u) << Render(vs);
}

TEST(BuslintReservedSubject, FiresOnHardcodedReservedLiterals) {
  auto vs = LintFixture("src/rmi/reserved_subject.cc", "reserved_subject.cc");
  // Six violations (stats/trace/bare-root/two health feeds/busstat time series); the
  // allow()'d line and the non-reserved roots are silent.
  EXPECT_EQ(CountRule(vs, kRuleReservedSubject), 6u) << Render(vs);
}

TEST(BuslintReservedSubject, SilentInTelemetryAndServices) {
  auto telemetry = LintFixture("src/telemetry/reserved_subject.cc", "reserved_subject.cc");
  EXPECT_EQ(CountRule(telemetry, kRuleReservedSubject), 0u) << Render(telemetry);
  auto services = LintFixture("src/services/reserved_subject.cc", "reserved_subject.cc");
  EXPECT_EQ(CountRule(services, kRuleReservedSubject), 0u) << Render(services);
}

TEST(BuslintTdlString, FiresOnUnparsableTdlLiterals) {
  auto vs = LintFixture("examples/embed.cc", "bad_tdl_string.cc");
  ASSERT_EQ(CountRule(vs, kRuleTdlString), 2u) << Render(vs);
  EXPECT_EQ(vs[0].line, 6);   // raw-string script with an unbalanced paren
  EXPECT_EQ(vs[1].line, 11);  // escaped literal with an unterminated TDL string
  EXPECT_NE(vs[0].message.find("does not parse"), std::string::npos);
}

TEST(BuslintTdlString, RawStringsReachTheReaderVerbatim) {
  // Multi-line raw scripts, TDL-level backslash escapes, and escapes adjacent to
  // the )tdl" closer: raw content must not be C++-unescaped before parsing.
  auto vs = LintFixture("src/tdl/raw_tdl_string.cc", "raw_tdl_string.cc");
  EXPECT_EQ(CountRule(vs, kRuleTdlString), 0u) << Render(vs);
}

TEST(BuslintTdlString, RawStringTriggersFireAtTheCallLine) {
  auto vs = LintFixture("src/tdl/bad_raw_tdl_string.cc", "bad_raw_tdl_string.cc");
  ASSERT_EQ(CountRule(vs, kRuleTdlString), 2u) << Render(vs);
  // The multi-line script is reported at the RunScript call, not inside the literal.
  EXPECT_EQ(vs[0].line, 8) << Render(vs);
  EXPECT_EQ(vs[1].line, 14) << Render(vs);
}

TEST(BuslintTdlString, SilentOnWellFormedAndNonLiteralScripts) {
  auto vs = LintFixture("examples/embed.cc", "good_tdl_string.cc");
  EXPECT_TRUE(vs.empty()) << Render(vs);
}

TEST(BuslintClean, CleanFixtureHasNoViolationsAnywhere) {
  auto vs = LintFixture("src/sim/clean.cc", "clean.cc");
  EXPECT_TRUE(vs.empty()) << Render(vs);
}

TEST(BuslintScrubber, IgnoresCommentsAndStrings) {
  auto vs = LintSource("src/sim/x.cc",
                       "// rand() in a comment\n"
                       "/* steady_clock in a block comment */\n"
                       "const char* s = \"getenv srand random_device\";\n");
  EXPECT_TRUE(vs.empty()) << Render(vs);
}

TEST(BuslintScrubber, DigitSeparatorDoesNotHideTheRestOfTheLine) {
  // A quote inside a pp-number is a separator, not a char literal that would
  // blank everything after it on the line.
  auto vs = LintSource("src/sim/x.cc", "int F() { return 1'000 + rand(); }\n");
  EXPECT_EQ(CountRule(vs, kRuleNondeterminism), 1u) << Render(vs);
}

TEST(BuslintScrubber, SeesPreprocessorLines) {
  // buslint reads directives as code: a banned call in a macro body is flagged.
  auto vs = LintSource("src/sim/x.cc", "#include <ctime>\n#define NOW() time(nullptr)\n");
  ASSERT_EQ(CountRule(vs, kRuleNondeterminism), 1u) << Render(vs);
  EXPECT_EQ(vs[0].line, 2);
}

TEST(BuslintNondeterminism, MessageNamesEveryCoreDirectory) {
  auto vs = LintSource("src/telemetry/x.cc", "int F() { return rand(); }\n");
  ASSERT_EQ(vs.size(), 1u) << Render(vs);
  for (std::string_view dir : kDeterministicCore) {
    EXPECT_NE(vs[0].message.find(dir), std::string::npos) << dir << ": " << vs[0].message;
  }
}

TEST(BuslintScrubber, ReportsCorrectLines) {
  auto vs = LintSource("src/sim/x.cc", "int a;\nint b;\nint c = rand();\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 3);
}

}  // namespace
}  // namespace ibus::buslint
