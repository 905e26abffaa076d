// Tests for wirecheck: every decode-safety rule has a trigger fixture that
// must fire and a twin fixture (same wire shape, disciplined) that must stay
// silent; the symmetry proof is exercised with a deliberately reordered
// Encode field; schema rendering and the wire-safe/wire-breaking diff
// classifier get direct coverage; and two drift guards pin the rule registry
// and the annotated codec set in the real sources so neither can rot silently.
#include "src/wirecheck/wirecheck.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ibus::wirecheck {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Program BuildFixture(const std::string& name) {
  SourceFile f;
  f.path = "src/fix/" + name;
  f.content = ReadFile(std::string(WIRECHECK_FIXTURE_DIR) + "/" + name);
  return BuildProgram({f});
}

std::vector<Diagnostic> AnalyzeFixture(const std::string& name) {
  return Analyze(BuildFixture(name));
}

size_t CountRule(const std::vector<Diagnostic>& ds, const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(ds.begin(), ds.end(), [&](const Diagnostic& d) { return d.rule == rule; }));
}

std::string Render(const std::vector<Diagnostic>& ds) {
  std::string out;
  for (const auto& d : ds) {
    out += d.ToString() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------------
// Symmetry: a deliberately reordered Encode field must fail the proof, with
// both sides of the first mismatching op in the message.
// ---------------------------------------------------------------------------------

TEST(WirecheckSymmetry, ReorderedFieldFailsTheProof) {
  auto ds = AnalyzeFixture("symmetry_trigger.cc");
  ASSERT_EQ(CountRule(ds, kRuleSymmetry), 1u) << Render(ds);
  const Diagnostic& d = *std::find_if(
      ds.begin(), ds.end(), [](const Diagnostic& x) { return x.rule == kRuleSymmetry; });
  EXPECT_NE(d.message.find("does not round-trip"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("encode writes"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("decode reads"), std::string::npos) << d.message;
  // Both sides carry file:line provenance.
  EXPECT_NE(d.message.find("src/fix/symmetry_trigger.cc:"), std::string::npos) << d.message;
}

TEST(WirecheckSymmetry, MatchedOrderTwinIsClean) {
  auto ds = AnalyzeFixture("symmetry_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckMissingPair, EncodeOnlyCodecFires) {
  auto ds = AnalyzeFixture("missing_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleMissingPair), 1u) << Render(ds);
}

TEST(WirecheckMissingPair, PairedTwinIsClean) {
  auto ds = AnalyzeFixture("missing_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

// ---------------------------------------------------------------------------------
// Decode-safety rules: trigger fires, twin stays silent.
// ---------------------------------------------------------------------------------

TEST(WirecheckVersionFirst, UncomparedVersionByteFires) {
  auto ds = AnalyzeFixture("version_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleVersionFirst), 1u) << Render(ds);
}

TEST(WirecheckVersionFirst, ComparedVersionTwinIsClean) {
  auto ds = AnalyzeFixture("version_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckUncheckedCount, UnclampedLoopBoundFires) {
  auto ds = AnalyzeFixture("count_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleUncheckedCount), 1u) << Render(ds);
}

TEST(WirecheckUncheckedCount, ClampedTwinIsClean) {
  auto ds = AnalyzeFixture("count_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckUnclampedAlloc, ReserveBeforeValidationFires) {
  auto ds = AnalyzeFixture("alloc_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleUnclampedAlloc), 1u) << Render(ds);
  // The loop below the (late) clamp is disciplined; only the reserve fires.
  EXPECT_EQ(CountRule(ds, kRuleUncheckedCount), 0u) << Render(ds);
}

TEST(WirecheckUnclampedAlloc, ValidateThenReserveTwinIsClean) {
  auto ds = AnalyzeFixture("alloc_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckRawReadBound, UnvalidatedLengthFires) {
  auto ds = AnalyzeFixture("rawread_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleRawReadBound), 1u) << Render(ds);
}

TEST(WirecheckRawReadBound, RemainingCheckTwinIsClean) {
  auto ds = AnalyzeFixture("rawread_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckTruncation, DerefBeforeOkCheckFires) {
  auto ds = AnalyzeFixture("truncation_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleTruncation), 1u) << Render(ds);
}

TEST(WirecheckTruncation, OkFirstTwinIsClean) {
  auto ds = AnalyzeFixture("truncation_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckTrailingBytes, UndecidedTailFires) {
  auto ds = AnalyzeFixture("trailing_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleTrailingBytes), 1u) << Render(ds);
}

TEST(WirecheckTrailingBytes, AtEndTwinIsClean) {
  auto ds = AnalyzeFixture("trailing_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckRecursion, MutualCycleWithoutDepthGuardFires) {
  auto ds = AnalyzeFixture("recursion_trigger.cc");
  EXPECT_GE(CountRule(ds, kRuleRecursion), 1u) << Render(ds);
}

TEST(WirecheckRecursion, DepthGuardedTwinIsClean) {
  auto ds = AnalyzeFixture("recursion_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckUncheckedIndex, TableIndexWithoutRangeCheckFires) {
  auto ds = AnalyzeFixture("index_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleUncheckedIndex), 1u) << Render(ds);
}

TEST(WirecheckUncheckedIndex, RangeCheckedTwinIsClean) {
  auto ds = AnalyzeFixture("index_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckBadAnnotation, BrokenMarkersFireAndDoNotSuppress) {
  auto ds = AnalyzeFixture("annotation_trigger.cc");
  // Floating codec marker, unjustified allow, unknown rule in allow.
  EXPECT_EQ(CountRule(ds, kRuleBadAnnotation), 3u) << Render(ds);
  // The unjustified allow does not silence the real bug on its line.
  EXPECT_EQ(CountRule(ds, kRuleTruncation), 1u) << Render(ds);
}

TEST(WirecheckBadAnnotation, JustifiedAllowTwinSuppressesAndIsClean) {
  auto ds = AnalyzeFixture("annotation_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(WirecheckScrubber, DigitSeparatorKeepsTheNextCodecAnnotation) {
  // `1'000` is one number; read as a char literal it swallowed the closing
  // brace, so the codec below was parsed as part of Cold's body and dropped.
  SourceFile f;
  f.path = "src/fix/separator.cc";
  f.content =
      "int Cold(int n) { return n > 1'000 ? 1 : 0; }\n"
      "// wirecheck: codec(sep_rec, version=0)\n"
      "Bytes EncodeSepRec(uint64_t id) {\n"
      "  WireWriter w;\n"
      "  w.PutU64(id);\n"
      "  return w.Take();\n"
      "}\n";
  Program p = BuildProgram({f});
  EXPECT_EQ(CodecNames(p), std::vector<std::string>{"sep_rec"});
  EXPECT_EQ(CountRule(Analyze(p), kRuleBadAnnotation), 0u) << Render(Analyze(p));
}

// ---------------------------------------------------------------------------------
// Schema rendering and diff classification.
// ---------------------------------------------------------------------------------

TEST(WirecheckSchema, RenderCarriesHeaderProvenanceAndOps) {
  Program p = BuildFixture("symmetry_twin.cc");
  ASSERT_EQ(p.codecs.size(), 1u);
  std::string schema = RenderSchema(p.codecs[0]);
  EXPECT_NE(schema.find("codec order_rec"), std::string::npos) << schema;
  EXPECT_NE(schema.find("version 0"), std::string::npos) << schema;
  EXPECT_NE(schema.find("encode EncodeOrderRec @ src/fix/symmetry_twin.cc"), std::string::npos)
      << schema;
  EXPECT_NE(schema.find("u32"), std::string::npos) << schema;
  EXPECT_NE(schema.find("string"), std::string::npos) << schema;
  EXPECT_NE(schema.find("end"), std::string::npos) << schema;
}

TEST(WirecheckDiff, IdenticalSchemasAreSame) {
  Program p = BuildFixture("symmetry_twin.cc");
  std::string schema = RenderSchema(p.codecs[0]);
  SchemaDiff d = DiffSchema(schema, schema);
  EXPECT_EQ(d.kind, SchemaDiff::kSame);
}

TEST(WirecheckDiff, LabelOnlyChangeIsWireSafe) {
  std::string golden =
      "codec demo\nversion 1\nfields\n  u32 seq\n  string name\nend\n";
  std::string current =
      "codec demo\nversion 1\nfields\n  u32 sequence_number\n  string name\nend\n";
  SchemaDiff d = DiffSchema(golden, current);
  EXPECT_EQ(d.kind, SchemaDiff::kWireSafe) << d.detail;
}

TEST(WirecheckDiff, ReorderedOpsAreWireBreaking) {
  std::string golden =
      "codec demo\nversion 1\nfields\n  u32 seq\n  string name\nend\n";
  std::string current =
      "codec demo\nversion 1\nfields\n  string name\n  u32 seq\nend\n";
  SchemaDiff d = DiffSchema(golden, current);
  EXPECT_EQ(d.kind, SchemaDiff::kWireBreaking) << d.detail;
}

TEST(WirecheckDiff, VersionBumpIsParsedFromBothSides) {
  std::string golden =
      "codec demo\nversion 1\nfields\n  u32 seq\nend\n";
  std::string current =
      "codec demo\nversion 2\nfields\n  u32 seq\n  u64 added\nend\n";
  SchemaDiff d = DiffSchema(golden, current);
  EXPECT_EQ(d.kind, SchemaDiff::kWireBreaking) << d.detail;
  EXPECT_EQ(d.old_version, 1);
  EXPECT_EQ(d.new_version, 2);
}

TEST(WirecheckDiff, LiteralRepeatCountChangeIsWireBreaking) {
  std::string golden =
      "codec demo\nversion 1\nfields\n  repeat count=4\n    u64 v\nend\n";
  std::string current =
      "codec demo\nversion 1\nfields\n  repeat count=8\n    u64 v\nend\n";
  SchemaDiff d = DiffSchema(golden, current);
  EXPECT_EQ(d.kind, SchemaDiff::kWireBreaking) << d.detail;
}

TEST(WirecheckDiff, CountExpressionRenameIsWireSafe) {
  std::string golden =
      "codec demo\nversion 1\nfields\n  repeat count=n\n    u64 v\nend\n";
  std::string current =
      "codec demo\nversion 1\nfields\n  repeat count=total\n    u64 v\nend\n";
  SchemaDiff d = DiffSchema(golden, current);
  EXPECT_EQ(d.kind, SchemaDiff::kWireSafe) << d.detail;
}

// ---------------------------------------------------------------------------------
// Drift guards: the rule registry and the annotated codec set in the real
// sources. If a codec is renamed, un-annotated, or a rule is added or removed,
// these fail before the gate silently stops covering it.
// ---------------------------------------------------------------------------------

TEST(WirecheckRules, RegistryPinsTheAllowableRuleSet) {
  const std::set<std::string> expected = {
      kRuleSymmetry,     kRuleMissingPair,  kRuleVersionFirst, kRuleUncheckedCount,
      kRuleUnclampedAlloc, kRuleRawReadBound, kRuleTruncation,   kRuleTrailingBytes,
      kRuleRecursion,    kRuleUncheckedIndex,
  };
  EXPECT_EQ(KnownRules(), expected);
  // bad-annotation cannot be allow()'d away.
  EXPECT_EQ(KnownRules().count(kRuleBadAnnotation), 0u);
}

TEST(WirecheckDriftGuard, AnnotatedCodecsMatchTheExpectedTable) {
  const std::vector<std::string> codec_files = {
      "src/bus/certified.cc",          "src/bus/message.cc",
      "src/capture/capture.cc",        "src/journal/format.cc",
      "src/proto/packets.cc",          "src/repo/mapper.cc",
      "src/rmi/election.cc",           "src/rmi/protocol.cc",
      "src/router/router.cc",          "src/services/bus_monitor.cc",
      "src/services/type_gossip.cc",   "src/telemetry/busstat.cc",
      "src/telemetry/health.cc",       "src/telemetry/sketch.cc",
      "src/telemetry/trace.cc",        "src/types/codec.cc",
      "src/types/type_descriptor.cc",  "src/wire/wire.cc",
  };
  std::vector<SourceFile> files;
  for (const std::string& rel : codec_files) {
    files.push_back({rel, ReadFile(std::string(WIRECHECK_SOURCE_DIR) + "/" + rel)});
  }
  Program p = BuildProgram(files);
  auto ds = Analyze(p);
  EXPECT_TRUE(ds.empty()) << Render(ds);

  const std::vector<std::string> expected = {
      "batch_packet", "capture_file", "cert_ack",      "data_object",
      "data_packet",  "election_id",  "frame",         "health_event",
      "heartbeat_packet", "hop_record", "journal_block", "message",
      "nak_packet",   "repo_props",   "rmi_advert",    "rmi_reply",
      "rmi_request",  "router_advert", "stat_series",  "stats_snapshot",
      "topk_sketch",  "type_chain",   "type_descriptor", "value",
  };
  EXPECT_EQ(CodecNames(p), expected);
}

}  // namespace
}  // namespace ibus::wirecheck
