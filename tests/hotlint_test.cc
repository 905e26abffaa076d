// Tests for hotlint: every rule has a trigger fixture that must fire and a twin
// fixture (same shape, disciplined) that must stay silent; call-graph edge cases
// (overloads, templates, lambdas-in-members, virtual dispatch, mutual recursion)
// get the same pairing; and a drift guard re-scans the real sources so the
// annotated hot-root table cannot rot silently.
#include "src/hotlint/hotlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ibus::hotlint {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Diagnostic> AnalyzeFixture(const std::string& name) {
  SourceFile f;
  f.path = "src/fix/" + name;
  f.content = ReadFile(std::string(HOTLINT_FIXTURE_DIR) + "/" + name);
  return Analyze(BuildProgram({f}));
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
// Rule triggers and twins.
// ---------------------------------------------------------------------------------

TEST(HotlintAlloc, TriggerFiresTwoHopsDown) {
  auto ds = AnalyzeFixture("alloc_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleAlloc), 1u) << Render(ds);
}

TEST(HotlintAlloc, TwinPooledPathIsClean) {
  auto ds = AnalyzeFixture("alloc_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintAlloc, ChainRunsRootToSite) {
  auto ds = AnalyzeFixture("alloc_trigger.cc");
  ASSERT_EQ(CountRule(ds, kRuleAlloc), 1u) << Render(ds);
  const Diagnostic& d = *std::find_if(ds.begin(), ds.end(),
                                      [](const Diagnostic& x) { return x.rule == kRuleAlloc; });
  // Full path: root first, offending function last, every hop labeled file:line.
  ASSERT_EQ(d.chain.size(), 3u) << Render(ds);
  EXPECT_NE(d.chain[0].find("Deliver"), std::string::npos) << d.chain[0];
  EXPECT_NE(d.chain[1].find("Stage"), std::string::npos) << d.chain[1];
  EXPECT_NE(d.chain[2].find("FreshNode"), std::string::npos) << d.chain[2];
  for (const std::string& hop : d.chain) {
    EXPECT_NE(hop.find("src/fix/alloc_trigger.cc:"), std::string::npos) << hop;
  }
}

TEST(HotlintContainerGrowth, TriggerFiresWithoutReserve) {
  auto ds = AnalyzeFixture("growth_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleContainerGrowth), 1u) << Render(ds);
}

TEST(HotlintContainerGrowth, TwinReserveIdiomSuppresses) {
  auto ds = AnalyzeFixture("growth_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintString, TriggerFiresOnConcatAndToString) {
  auto ds = AnalyzeFixture("string_trigger.cc");
  EXPECT_GE(CountRule(ds, kRuleString), 2u) << Render(ds);
}

TEST(HotlintString, TwinViewPathIsClean) {
  auto ds = AnalyzeFixture("string_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintByValue, TriggerFiresOnParamAndReturn) {
  auto ds = AnalyzeFixture("byvalue_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleByValue), 2u) << Render(ds);
}

TEST(HotlintByValue, TwinRefsOutParamsAndMovedSinksAreClean) {
  auto ds = AnalyzeFixture("byvalue_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintStdFunction, TriggerFiresEvenWhenMoved) {
  auto ds = AnalyzeFixture("stdfunction_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleStdFunction), 1u) << Render(ds);
}

TEST(HotlintStdFunction, TwinFunctionPointerIsClean) {
  auto ds = AnalyzeFixture("stdfunction_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintIostream, TriggerFiresTransitively) {
  auto ds = AnalyzeFixture("iostream_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleIostream), 1u) << Render(ds);
}

TEST(HotlintIostream, TwinJustifiedAllowSuppresses) {
  auto ds = AnalyzeFixture("iostream_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintLock, TriggerFiresOnLockGuard) {
  auto ds = AnalyzeFixture("lock_trigger.cc");
  EXPECT_GE(CountRule(ds, kRuleLock), 1u) << Render(ds);
}

TEST(HotlintLock, TwinColdMarkerCutsPropagation) {
  auto ds = AnalyzeFixture("lock_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintRecursion, TriggerFiresOnSelfRecursion) {
  auto ds = AnalyzeFixture("recursion_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleRecursion), 1u) << Render(ds);
}

TEST(HotlintRecursion, TwinJustifiedSignatureAllowSuppresses) {
  auto ds = AnalyzeFixture("recursion_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintNondet, TriggerFiresOnClockAndPtrKeyedIteration) {
  auto ds = AnalyzeFixture("nondet_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleNondet), 2u) << Render(ds);
}

TEST(HotlintNondet, TwinVirtualTimeAndOrderedMapAreClean) {
  auto ds = AnalyzeFixture("nondet_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintBadAnnotation, TriggerFiresAndBrokenAllowsDoNotSuppress) {
  auto ds = AnalyzeFixture("annotation_trigger.cc");
  // Unjustified allow, unknown rule name, and a floating hot marker.
  EXPECT_EQ(CountRule(ds, kRuleBadAnnotation), 3u) << Render(ds);
  // Neither broken allow suppresses: both allocations still fire.
  EXPECT_EQ(CountRule(ds, kRuleAlloc), 2u) << Render(ds);
}

TEST(HotlintBadAnnotation, TwinWellFormedAnnotationsAreClean) {
  auto ds = AnalyzeFixture("annotation_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintScrubber, DigitSeparatorDoesNotOpenACharLiteral) {
  // `1'000` is one number: read as a char literal running to the end of the
  // line, the quote used to swallow the closing brace, so the hot marker below
  // floated free and the allocation was never charged to a hot function.
  SourceFile f;
  f.path = "src/fix/separator.cc";
  f.content =
      "int Cold(int n) { return n > 1'000 ? 1 : 0; }\n"
      "// hotlint: hot\n"
      "void Deliver() { auto p = std::make_unique<int>(0x7F'FF); }\n"
      "char Quote() { return L'x' + u8'y' + '\\''; }\n";
  auto ds = Analyze(BuildProgram({f}));
  EXPECT_EQ(CountRule(ds, kRuleBadAnnotation), 0u) << Render(ds);
  ASSERT_EQ(CountRule(ds, kRuleAlloc), 1u) << Render(ds);
  EXPECT_EQ(ds[0].line, 3) << Render(ds);
}

// ---------------------------------------------------------------------------------
// Call-graph edge cases.
// ---------------------------------------------------------------------------------

TEST(HotlintEdgeOverloads, ArityPicksTheCalledOverload) {
  auto ds = AnalyzeFixture("edge_overloads_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleAlloc), 1u) << Render(ds);
}

TEST(HotlintEdgeOverloads, UnreachableArityStaysCold) {
  auto ds = AnalyzeFixture("edge_overloads_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintEdgeTemplates, TemplateBodiesJoinTheGraph) {
  auto ds = AnalyzeFixture("edge_templates_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleAlloc), 1u) << Render(ds);
}

TEST(HotlintEdgeTemplates, CleanTemplateTwinIsSilent) {
  auto ds = AnalyzeFixture("edge_templates_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintEdgeLambda, LambdaBodyChargesTheEnclosingHotFunction) {
  auto ds = AnalyzeFixture("edge_lambda_member_trigger.cc");
  EXPECT_GE(CountRule(ds, kRuleAlloc), 1u) << Render(ds);
}

TEST(HotlintEdgeLambda, SetupTimeInstallTwinIsSilent) {
  auto ds = AnalyzeFixture("edge_lambda_member_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintEdgeVirtual, DispatchUnionsOverAllOverriders) {
  auto ds = AnalyzeFixture("edge_virtual_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleAlloc), 1u) << Render(ds);
}

TEST(HotlintEdgeVirtual, AllCleanOverridersTwinIsSilent) {
  auto ds = AnalyzeFixture("edge_virtual_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

TEST(HotlintEdgeMutual, TwoNodeCycleFlagsBothMembers) {
  auto ds = AnalyzeFixture("edge_mutual_trigger.cc");
  EXPECT_EQ(CountRule(ds, kRuleRecursion), 2u) << Render(ds);
}

TEST(HotlintEdgeMutual, JustifiedAllowsOnBothSignaturesSuppress) {
  auto ds = AnalyzeFixture("edge_mutual_twin.cc");
  EXPECT_TRUE(ds.empty()) << Render(ds);
}

// ---------------------------------------------------------------------------------
// Graph export and rule registry.
// ---------------------------------------------------------------------------------

TEST(HotlintDot, ExportMarksRootsHotNodesAndEdges) {
  SourceFile f;
  f.path = "src/fix/alloc_trigger.cc";
  f.content = ReadFile(std::string(HOTLINT_FIXTURE_DIR) + "/alloc_trigger.cc");
  Program p = BuildProgram({f});
  std::string dot = DotGraph(p);
  EXPECT_NE(dot.find("digraph hotlint"), std::string::npos);
  EXPECT_NE(dot.find("\"Deliver\" [shape=box,style=filled"), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"Deliver\" -> \"Stage\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"Stage\" -> \"FreshNode\""), std::string::npos) << dot;
}

TEST(HotlintRules, RegistryCoversEveryAllowableRule) {
  const auto& rules = KnownRules();
  for (const char* r : {kRuleAlloc, kRuleContainerGrowth, kRuleString, kRuleByValue,
                        kRuleStdFunction, kRuleIostream, kRuleLock, kRuleRecursion, kRuleNondet}) {
    EXPECT_EQ(rules.count(r), 1u) << r;
  }
  // bad-annotation cannot be allow()'d away.
  EXPECT_EQ(rules.count(kRuleBadAnnotation), 0u);
}

// ---------------------------------------------------------------------------------
// Drift guard: the annotated hot-root table in the real sources. Mirrors the
// tdlcheck builtin-table guard — if a root is renamed, moved, or its annotation
// dropped, this test fails before the lint silently stops covering that path.
// ---------------------------------------------------------------------------------

TEST(HotlintDriftGuard, AnnotatedRootsMatchTheExpectedTable) {
  const std::vector<std::string> root_files = {
      "src/bus/certified.cc", "src/bus/client.cc",  "src/bus/daemon.cc",
      "src/bus/message.cc",   "src/router/router.cc", "src/sim/network.cc",
      "src/wire/wire.cc",
  };
  std::vector<SourceFile> files;
  for (const std::string& rel : root_files) {
    files.push_back({rel, ReadFile(std::string(HOTLINT_SOURCE_DIR) + "/" + rel)});
  }
  Program p = BuildProgram(files);
  // Every annotation in the real sources must attach and be well-formed.
  EXPECT_TRUE(p.annotation_diagnostics.empty()) << Render(p.annotation_diagnostics);

  const std::vector<std::string> expected = {
      "BusClient::HandleDatagram",
      "BusClient::Publish",
      "BusDaemon::DispatchInbound",
      "BusDaemon::HandleClientPublish",
      "BusDaemon::HandleDatagram",
      "CertifiedPublisher::HandleAck",
      "CertifiedSubscriber::HandleMessage",
      "FrameMessage",
      "InfoRouter::ForwardToPeer",
      "InfoRouter::RepublishFromPeer",
      "Message::Marshal",
      "Message::Unmarshal",
      "Network::BroadcastDatagram",
      "Network::DeliverDatagram",
      "Network::SendDatagram",
      "ParseFrame",
  };
  EXPECT_EQ(HotRoots(p), expected);
}

}  // namespace
}  // namespace ibus::hotlint
