// Tests for the analyzer front end shared by buslint, hotlint, and wirecheck:
// the scrubber and its two views, the `// <tool>:` annotation grammar,
// ClassifyHead, and the scope-stack function index.
#include "src/cxxscan/cxxscan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ibus::cxxscan {
namespace {

// The scrubbed code with newlines shown as '|' and trailing blanks per line
// trimmed, so expectations read as one line.
std::string Flat(const std::string& code) {
  std::string out;
  std::string line;
  for (char c : code + "\n") {
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    line.erase(line.find_last_not_of(' ') + 1);
    out += line + "|";
    line.clear();
  }
  out.pop_back();
  return out;
}

// ---------------------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------------------

TEST(CxxscanScrub, RawStringEndsOnlyAtItsOwnDelimiter) {
  std::string src = "auto s = R\"x(a)\"b)x\"; f();";
  Scrubbed s = Scrub(src);
  EXPECT_EQ(Flat(s.code), "auto s = R\"        \"; f();");
  size_t quote = src.find('"');
  EXPECT_EQ(s.literals.at(quote), "a)\"b");
  EXPECT_EQ(s.raw_literals.count(quote), 1u);
}

TEST(CxxscanScrub, EscapedQuotesStayInsideTheLiteral) {
  std::string src = "g(\"a\\\"b\", '\"', x);";
  Scrubbed s = Scrub(src);
  EXPECT_EQ(Flat(s.code), "g(\"    \", ' ', x);");
  EXPECT_EQ(s.literals.at(2), "a\\\"b");  // escapes are kept as written
  EXPECT_EQ(s.literals.size(), 1u);       // char literals record no contents
}

TEST(CxxscanScrub, BlockCommentsKeepTheirNewlines) {
  Scrubbed s = Scrub("a /* one\ntwo\nthree */ b\nc");
  EXPECT_EQ(Flat(s.code), "a||         b|c");
  EXPECT_EQ(s.LineOf(s.code.find('c')), 4);
  EXPECT_EQ(s.ColOf(s.code.find('b')), 10);
}

TEST(CxxscanScrub, DirectiveSpanCoversBackslashContinuations) {
  std::string src = "#define TWICE(x) \\\n  ((x) + (x))\nint y;\n  # pragma once\nz # w\n";
  Scrubbed s = Scrub(src);
  ASSERT_EQ(s.directives.size(), 2u);
  EXPECT_EQ(src.substr(s.directives[0].first, s.directives[0].second - s.directives[0].first),
            "#define TWICE(x) \\\n  ((x) + (x))");
  EXPECT_EQ(src.substr(s.directives[1].first, s.directives[1].second - s.directives[1].first),
            "# pragma once");
  // buslint's view keeps directives; hotlint's and wirecheck's blank them.
  EXPECT_EQ(Flat(s.code), "#define TWICE(x) \\|  ((x) + (x))|int y;|  # pragma once|z # w|");
  EXPECT_EQ(Flat(WithoutDirectives(s).code), "||int y;||z # w|");
  EXPECT_EQ(WithoutDirectives(s).line_starts, s.line_starts);
}

TEST(CxxscanScrub, CommentsOnDirectiveLinesLeaveOnlyTheFullView) {
  Scrubbed s = Scrub("#include <new>  // buslint: allow(raw-new-delete)\nint x;  // note\n");
  ASSERT_EQ(s.comments.size(), 2u);
  EXPECT_EQ(s.comments[0].line, 1);
  EXPECT_EQ(s.comments[0].text, "// buslint: allow(raw-new-delete)");
  Scrubbed blanked = WithoutDirectives(s);
  ASSERT_EQ(blanked.comments.size(), 1u);
  EXPECT_EQ(blanked.comments[0].text, "// note");
}

TEST(CxxscanScrub, UnterminatedLiteralStopsAtTheNewline) {
  std::string src = "a = \"open;\nb = 'c;\nd = 1;";
  Scrubbed s = Scrub(src);
  EXPECT_EQ(Flat(s.code), "a = \"|b = '|d = 1;");
  EXPECT_EQ(s.literals.at(4), "open;");
  EXPECT_EQ(s.LineOf(s.code.find('d')), 3);
}

TEST(CxxscanScrub, DigitSeparatorsAreNotCharLiterals) {
  std::string src = "n = 1'000'000 + 0xFF'FF + .5'0; c = L'x' + u8'y' + '\\'' + 'z';";
  Scrubbed s = Scrub(src);
  EXPECT_EQ(Flat(s.code), "n = 1'000'000 + 0xFF'FF + .5'0; c = L' ' + u8' ' + '  ' + ' ';");
  EXPECT_TRUE(IsDigitSeparator(src, src.find("'000")));
  EXPECT_FALSE(IsDigitSeparator(src, src.find("'x'")));
  EXPECT_FALSE(IsDigitSeparator(src, src.find("'y'")));
}

// ---------------------------------------------------------------------------------
// Annotation grammar
// ---------------------------------------------------------------------------------

std::vector<Annotation> Parse(const std::string& src, const std::string& tool) {
  return ParseAnnotations(Scrub(src), tool);
}

TEST(CxxscanAnnotations, JustifiedAndUnjustifiedAllows) {
  auto as = Parse(
      "a();  // hotlint: allow(hot-alloc) -- pooled upstream\n"
      "b();  // hotlint: allow(hot-lock)\n"
      "c();  // hotlint: allow(hot-lock) --   \n",
      "hotlint");
  ASSERT_EQ(as.size(), 3u);
  EXPECT_TRUE(as[0].IsAllow());
  EXPECT_TRUE(as[0].justified);
  EXPECT_EQ(as[0].Rules(), (std::set<std::string>{"hot-alloc"}));
  EXPECT_FALSE(as[1].justified);
  EXPECT_FALSE(as[2].justified);  // a blank reason is no reason
  AllowMap strict = CollectAllows(as, /*need_why=*/true);
  EXPECT_TRUE(strict.Allowed(1, "hot-alloc"));
  EXPECT_FALSE(strict.Allowed(2, "hot-lock"));
  AllowMap lenient = CollectAllows(as, /*need_why=*/false);
  EXPECT_TRUE(lenient.Allowed(2, "hot-lock"));
  EXPECT_EQ(AllowProblems(as[1], "hotlint", {"hot-lock"}),
            std::vector<std::string>{"hotlint: allow(...) requires a '-- justification'"});
}

TEST(CxxscanAnnotations, UnclosedParenIsNotAnAllow) {
  auto as = Parse("x();  // wirecheck: allow(symmetry -- why\n", "wirecheck");
  ASSERT_EQ(as.size(), 1u);
  EXPECT_EQ(as[0].word, "allow");
  EXPECT_TRUE(as[0].has_args);
  EXPECT_FALSE(as[0].closed);
  EXPECT_FALSE(as[0].IsAllow());
  EXPECT_TRUE(CollectAllows(as, false).lines.empty());
}

TEST(CxxscanAnnotations, MultipleRulesAllAndOtherWords) {
  auto as = Parse(
      "// buslint: allow( nondeterminism , raw-new-delete,) -- fixture\n"
      "x();  // buslint: allow(all)\n"
      "// hotlint: hot\n"
      "// wirecheck: codec(rec, version=2)\n",
      "buslint");
  ASSERT_EQ(as.size(), 2u);  // other tools' annotations are not ours
  EXPECT_EQ(as[0].Rules(), (std::set<std::string>{"nondeterminism", "raw-new-delete"}));
  AllowMap allows = CollectAllows(as, false);
  EXPECT_TRUE(allows.Allowed(1, "raw-new-delete"));
  EXPECT_FALSE(allows.Allowed(1, "decode-pair"));
  EXPECT_TRUE(allows.Allowed(2, "decode-pair"));  // `all` covers every rule
  EXPECT_EQ(allows.Within(1, 2).size(), 3u);
  EXPECT_EQ(AllowProblems(as[0], "buslint", {"nondeterminism"}),
            std::vector<std::string>{"allow() names unknown rule 'raw-new-delete'"});

  auto wire = Parse("// wirecheck: codec(rec, version=2)\n", "wirecheck");
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0].word, "codec");
  EXPECT_EQ(wire[0].args, "rec, version=2");
  auto hot = Parse("void f() {}  // hotlint:hot -- root\n", "hotlint");
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].word, "hot");
  EXPECT_FALSE(hot[0].has_args);
}

// ---------------------------------------------------------------------------------
// ClassifyHead and the function index
// ---------------------------------------------------------------------------------

HeadInfo Head(const std::string& head) { return ClassifyHead(head, 0, head.size()); }

TEST(CxxscanClassifyHead, OperatorCallAndDestructor) {
  HeadInfo call = Head("bool Less::operator()(const A& a, const B& b) const ");
  EXPECT_EQ(call.kind, HeadInfo::kFunction);
  EXPECT_EQ(call.name, "operator()");
  EXPECT_EQ(call.qualifiers, std::vector<std::string>{"Less"});
  std::string params = "bool Less::operator()(const A& a, const B& b) const ";
  EXPECT_EQ(params.substr(call.params_begin, call.params_end - call.params_begin),
            "const A& a, const B& b");

  HeadInfo dtor = Head("Conn::~Conn() ");
  EXPECT_EQ(dtor.kind, HeadInfo::kFunction);
  EXPECT_EQ(dtor.name, "~Conn");
  EXPECT_EQ(dtor.qualifiers, std::vector<std::string>{"Conn"});

  EXPECT_EQ(Head("bool operator==(const X& o) const ").name, "operator==");
}

TEST(CxxscanClassifyHead, TemplateHeadsAndCtorInitLists) {
  std::string spec = "template <> std::vector<int> Box<int>::Get(size_t n) ";
  HeadInfo h = ClassifyHead(spec, 0, spec.size());
  EXPECT_EQ(h.kind, HeadInfo::kFunction);
  EXPECT_EQ(h.name, "Get");
  EXPECT_EQ(h.qualifiers, std::vector<std::string>{"Box"});
  EXPECT_EQ(spec.substr(h.return_begin, h.return_end - h.return_begin), "std::vector<int> ");

  std::string ctor = "Pool::Pool(size_t n) : slots_(n), free_(n) ";
  HeadInfo c = ClassifyHead(ctor, 0, ctor.size());
  EXPECT_EQ(c.kind, HeadInfo::kFunction);
  EXPECT_EQ(c.name, "Pool");
  EXPECT_EQ(ctor.substr(c.tail_begin), " : slots_(n), free_(n) ");
}

TEST(CxxscanClassifyHead, ScopesAndNonFunctions) {
  EXPECT_EQ(Head("namespace ibus::wire ").kind, HeadInfo::kNamespace);
  HeadInfo cls = Head("class [[nodiscard]] Frame : public Base ");
  EXPECT_EQ(cls.kind, HeadInfo::kClass);
  EXPECT_EQ(cls.name, "Frame");
  EXPECT_EQ(Head("enum class Kind : uint8_t ").kind, HeadInfo::kOther);
  EXPECT_EQ(Head("if (ready) ").kind, HeadInfo::kOther);
  EXPECT_EQ(Head("int table[] = ").kind, HeadInfo::kOther);
}

TEST(CxxscanIndex, QualifiedNamesBodiesAndSignatureWindows) {
  std::string src =
      "namespace ibus {\n"
      "enum class Kind { kA, kB };\n"
      "class Router {\n"
      " public:\n"
      "  void Forward(int hop) { if (hop) { Drop(); } }\n"
      "  struct Stats { int Total() const { return 1; } };\n"
      "};\n"
      "int Router::Drop()\n"
      "{\n"
      "  auto f = [](int x) { return x; };\n"
      "  return f(0);\n"
      "}\n"
      "}  // namespace ibus\n"
      "template <typename T>\n"
      "T Twice(T v) { return v + v; }\n";
  Scrubbed s = Scrub(src);
  std::vector<Definition> defs = IndexFunctions(s);
  std::vector<std::string> names;
  for (const Definition& d : defs) {
    names.push_back(d.qualified_name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"Router::Forward", "Router::Stats::Total",
                                              "Router::Drop", "Twice"}));
  const Definition& drop = defs[2];
  EXPECT_EQ(drop.first_line, 8);
  EXPECT_EQ(drop.open_line, 9);
  EXPECT_EQ(src[drop.open], '{');
  EXPECT_EQ(src[drop.close], '}');
  EXPECT_EQ(s.LineOf(drop.close), 12);
  EXPECT_EQ(defs[3].first_line, 15);  // the template introducer is not the signature
}

TEST(CxxscanSplitParams, DefaultsPacksAndNames) {
  std::string p = "const std::string& s, std::map<int, int> m = {}, Args&&... rest";
  std::vector<ParamDecl> ps = SplitParams(p, 0, p.size());
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps[0].name, "s");
  EXPECT_EQ(ps[1].name, "m");
  EXPECT_TRUE(ps[1].has_default);
  EXPECT_TRUE(ps[2].is_pack);
  EXPECT_EQ(CountArgs("f(a, g(b, c), {d, e})", 1, 21), 3u);
}

}  // namespace
}  // namespace ibus::cxxscan
