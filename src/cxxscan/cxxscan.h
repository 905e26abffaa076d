// cxxscan: the C++ front end shared by the repo's analyzers (buslint, hotlint,
// wirecheck). Pure text analysis — no libclang, no preprocessor — in four
// layers, each a plain function over the one before:
//
//   Scrub            one pass over the raw bytes: comments and literal contents
//                    blanked (offsets and newlines kept), literal contents and
//                    preprocessor-line spans recorded, `//` comments collected.
//                    WithoutDirectives() derives the view with preprocessor
//                    lines blanked too.
//   ParseAnnotations the shared `// <tool>: word[(args)] [-- why]` grammar;
//                    each tool decides which words it accepts and whether an
//                    allow() needs its `-- why`.
//   token helpers    identifier/space/paren/angle scanning over scrubbed code.
//   IndexFunctions   ClassifyHead + a namespace/class scope-stack walk: every
//                    function definition with its qualified name, head, body
//                    range, and signature line window.
//
// Header-only so any tool can use it without a link dependency.
#ifndef SRC_CXXSCAN_CXXSCAN_H_
#define SRC_CXXSCAN_CXXSCAN_H_

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ibus::cxxscan {

constexpr size_t npos = std::string_view::npos;

struct SourceFile {
  std::string path;     // repo-relative, e.g. "src/bus/daemon.cc"
  std::string content;  // raw bytes of the file
};

inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

// ---------------------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------------------

// A `//` comment: offset of its first '/', 1-based line, full text.
struct Comment {
  size_t off = 0;
  int line = 0;
  std::string text;
};

// Source text with comments and literal *contents* blanked (newlines kept, so
// offsets and line numbers survive). Literals keep their quotes in `code`; the
// contents of a string literal are retrievable by the offset of its opening
// quote. Preprocessor lines stay in `code`; `directives` records their spans.
struct Scrubbed {
  std::string code;
  std::vector<size_t> line_starts;  // offset of the first char of each line
  // Opening-quote offset of each string literal -> the raw chars between the
  // quotes (C++ escapes left as written; raw strings without the delimiters).
  std::unordered_map<size_t, std::string> literals;
  // Opening-quote offsets of raw strings: their contents carry no C++ escapes.
  std::unordered_set<size_t> raw_literals;
  // [begin, end) of each preprocessor line, backslash continuations included.
  std::vector<std::pair<size_t, size_t>> directives;
  std::vector<Comment> comments;

  int LineOf(size_t offset) const {
    auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<int>(it - line_starts.begin());
  }
  int ColOf(size_t offset) const {
    int line = LineOf(offset);
    return static_cast<int>(offset - line_starts[static_cast<size_t>(line) - 1]) + 1;
  }
};

// True when the '\'' at `i` is a C++14 digit separator (1'000, 0xFF'FF): it sits
// inside a pp-number, i.e. a token that began with a digit. Everywhere else —
// L'x', u8'x', '\'' — a quote opens a character literal.
inline bool IsDigitSeparator(std::string_view src, size_t i) {
  size_t b = i;
  while (b > 0 && (IsIdentChar(src[b - 1]) || src[b - 1] == '\'' || src[b - 1] == '.')) {
    --b;
  }
  if (b < i && src[b] == '.') {
    ++b;  // .5'0 — the number starts after the point
  }
  return b < i && std::isdigit(static_cast<unsigned char>(src[b])) != 0 &&
         i + 1 < src.size() && IsIdentChar(src[i + 1]);
}

inline Scrubbed Scrub(std::string_view src) {
  Scrubbed out;
  out.code.assign(src.size(), ' ');
  out.line_starts.push_back(0);
  bool at_line_start = true;  // only whitespace seen since the last newline
  auto newlines = [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      if (src[j] == '\n') {
        out.code[j] = '\n';
        out.line_starts.push_back(j + 1);
        at_line_start = true;
      }
    }
  };
  size_t i = 0;
  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      newlines(i, i + 1);
      ++i;
      continue;
    }
    if (at_line_start && c == '#') {
      size_t end = src.find('\n', i);
      while (end != npos && src[end - 1] == '\\') {
        end = src.find('\n', end + 1);
      }
      out.directives.push_back({i, end == npos ? src.size() : end});
    }
    if (!IsSpace(c)) {
      at_line_start = false;
    }
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '/' && next == '/') {
      size_t end = std::min(src.find('\n', i), src.size());
      out.comments.push_back(
          {i, static_cast<int>(out.line_starts.size()), std::string(src.substr(i, end - i))});
      i = end;  // newline handled by the main loop
      continue;
    }
    if (c == '/' && next == '*') {
      size_t end = src.find("*/", i + 2);
      end = end == npos ? src.size() : end + 2;
      newlines(i, end);
      i = end;
      continue;
    }
    if (c == '\'' && IsDigitSeparator(src, i)) {
      out.code[i++] = c;
      continue;
    }
    if (c == '"' && i > 0 && src[i - 1] == 'R') {  // R"delim( ... )delim"
      size_t paren = src.find('(', i);
      if (paren != npos) {
        std::string closer = ")" + std::string(src.substr(i + 1, paren - i - 1)) + "\"";
        size_t end = src.find(closer, paren + 1);
        if (end != npos) {
          size_t close_q = end + closer.size() - 1;
          out.literals[i] = std::string(src.substr(paren + 1, end - paren - 1));
          out.raw_literals.insert(i);
          out.code[i] = out.code[close_q] = '"';
          newlines(i, close_q);
          i = close_q + 1;
          continue;
        }
      }
    }
    if (c == '"' || c == '\'') {
      size_t start = i++;
      while (i < src.size() && src[i] != c && src[i] != '\n') {  // unterminated: stop at EOL
        i += src[i] == '\\' && i + 1 < src.size() ? 2 : 1;
      }
      if (c == '"') {
        out.literals[start] = std::string(src.substr(start + 1, i - start - 1));
      }
      out.code[start] = c;
      if (i < src.size() && src[i] == c) {
        out.code[i++] = c;
      }
      continue;
    }
    out.code[i++] = c;
  }
  return out;
}

// The view hotlint and wirecheck parse: preprocessor lines blanked as well (so
// `#if` alternatives and macro bodies cannot unbalance braces), and the comments
// on them dropped.
inline Scrubbed WithoutDirectives(Scrubbed s) {
  auto in_directive = [&](size_t off) {
    return std::any_of(s.directives.begin(), s.directives.end(),
                       [&](const auto& d) { return off >= d.first && off < d.second; });
  };
  for (const auto& [begin, end] : s.directives) {
    for (size_t j = begin; j < end; ++j) {
      if (s.code[j] != '\n') {
        s.code[j] = ' ';
      }
    }
  }
  s.comments.erase(std::remove_if(s.comments.begin(), s.comments.end(),
                                  [&](const Comment& c) { return in_directive(c.off); }),
                   s.comments.end());
  return s;
}

// ---------------------------------------------------------------------------------
// Annotation grammar: `// <tool>: word[(args)] [-- why]`
// ---------------------------------------------------------------------------------

struct Annotation {
  int line = 0;
  std::string word;        // "allow", "hot", "codec", ... (may be empty)
  bool has_args = false;   // the word is followed directly by '('
  bool closed = false;     // ... and a ')' closes the argument list
  std::string args;        // text between the parens
  bool justified = false;  // a non-blank reason follows `--`

  // The argument list split on ',' with whitespace dropped (allow's rule names).
  std::set<std::string> Rules() const {
    std::set<std::string> rules;
    std::string rule;
    for (char c : args + ",") {
      if (c == ',') {
        if (!rule.empty()) {
          rules.insert(rule);
        }
        rule.clear();
      } else if (!IsSpace(c)) {
        rule.push_back(c);
      }
    }
    return rules;
  }
  // A well-formed allow(...), justified or not.
  bool IsAllow() const { return word == "allow" && has_args && closed; }
};

// Every `<tool>:` annotation in the file's `//` comments, in source order.
inline std::vector<Annotation> ParseAnnotations(const Scrubbed& s, std::string_view tool) {
  const std::string marker = std::string(tool) + ":";
  std::vector<Annotation> out;
  for (const Comment& c : s.comments) {
    size_t at = c.text.find(marker);
    if (at == npos) {
      continue;
    }
    std::string_view rest = std::string_view(c.text).substr(at + marker.size());
    while (!rest.empty() && IsSpace(rest.front())) {
      rest.remove_prefix(1);
    }
    Annotation a;
    a.line = c.line;
    size_t dash = rest.find("--");
    a.justified = dash != npos && rest.find_first_not_of(" \t", dash + 2) != npos;
    size_t e = 0;
    while (e < rest.size() && IsIdentChar(rest[e])) {
      ++e;
    }
    a.word = std::string(rest.substr(0, e));
    if (e < rest.size() && rest[e] == '(') {
      size_t close = rest.find(')', e);
      a.has_args = true;
      a.closed = close != npos;
      a.args = std::string(rest.substr(e + 1, std::min(close, rest.size()) - e - 1));
    }
    out.push_back(std::move(a));
  }
  return out;
}

// line -> rules an allow() suppresses on that line ("all" suppresses every rule).
struct AllowMap {
  std::unordered_map<int, std::set<std::string>> lines;

  bool Allowed(int line, std::string_view rule) const {
    auto it = lines.find(line);
    return it != lines.end() &&
           (it->second.count(std::string(rule)) > 0 || it->second.count("all") > 0);
  }
  // Union of the rules allowed on lines [first, last].
  std::set<std::string> Within(int first, int last) const {
    std::set<std::string> out;
    for (int l = first; l <= last; ++l) {
      auto it = lines.find(l);
      if (it != lines.end()) {
        out.insert(it->second.begin(), it->second.end());
      }
    }
    return out;
  }
};

// The allow() annotations that take effect: all of them, or only the justified
// ones when the tool demands a reason.
inline AllowMap CollectAllows(const std::vector<Annotation>& annotations, bool need_why) {
  AllowMap allows;
  for (const Annotation& a : annotations) {
    if (a.IsAllow() && (a.justified || !need_why)) {
      std::set<std::string> rules = a.Rules();
      allows.lines[a.line].insert(rules.begin(), rules.end());
    }
  }
  return allows;
}

// What is wrong with an allow() for a tool that demands a reason and knows
// `known` rule names; empty when it is well formed.
inline std::vector<std::string> AllowProblems(const Annotation& a, std::string_view tool,
                                              const std::set<std::string>& known) {
  std::vector<std::string> out;
  if (!a.justified) {
    out.push_back(std::string(tool) + ": allow(...) requires a '-- justification'");
  }
  for (const std::string& r : a.Rules()) {
    if (r != "all" && known.count(r) == 0) {
      out.push_back("allow() names unknown rule '" + r + "'");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------------
// Token helpers (over scrubbed code)
// ---------------------------------------------------------------------------------

inline size_t SkipSpace(std::string_view s, size_t i) {
  while (i < s.size() && IsSpace(s[i])) {
    ++i;
  }
  return i;
}

// Offset of the previous non-space char before `i`, or npos at start of file.
inline size_t PrevMeaningful(std::string_view s, size_t i) {
  while (i > 0) {
    if (!IsSpace(s[--i])) {
      return i;
    }
  }
  return npos;
}

// Offset just past the `close` matching the `open_c` at `open`, or npos.
inline size_t MatchPair(std::string_view s, size_t open, char open_c, char close_c) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == open_c) {
      ++depth;
    } else if (s[i] == close_c && --depth == 0) {
      return i + 1;
    }
  }
  return npos;
}
inline size_t MatchParen(std::string_view s, size_t open) { return MatchPair(s, open, '(', ')'); }
inline size_t MatchBrace(std::string_view s, size_t open) { return MatchPair(s, open, '{', '}'); }
inline size_t MatchBracket(std::string_view s, size_t open) {
  return MatchPair(s, open, '[', ']');
}

// Offset just past the '>' matching the '<' at `open`, or npos. Bails on chars
// that cannot occur inside template arguments (a lone '<' was a comparison).
inline size_t MatchAngle(std::string_view s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    char c = s[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>' && --depth == 0) {
      return i + 1;
    } else if (c == ';' || c == '{' || c == '}') {
      return npos;
    }
  }
  return npos;
}

// Calls fn(offset, text) for every identifier token (not starting with a digit)
// in [begin, end).
template <typename Fn>
void ForEachIdentifier(std::string_view code, size_t begin, size_t end, Fn&& fn) {
  size_t i = begin;
  while (i < end) {
    if (IsIdentChar(code[i]) && (i == 0 || !IsIdentChar(code[i - 1])) &&
        std::isdigit(static_cast<unsigned char>(code[i])) == 0) {
      size_t j = i;
      while (j < end && IsIdentChar(code[j])) {
        ++j;
      }
      fn(i, code.substr(i, j - i));
      i = j;
      continue;
    }
    ++i;
  }
}

// Number of top-level arguments of the call whose '(' is at `open` and whose
// ')' ends just before `past` (0 for empty parens).
inline size_t CountArgs(std::string_view code, size_t open, size_t past) {
  size_t args = 0;
  int paren = 0;
  int angle = 0;
  int brace = 0;
  int bracket = 0;
  bool any = false;
  for (size_t i = open; i + 1 < past; ++i) {
    char c = code[i];
    if (c == '(' || c == ')') {
      paren += c == '(' ? 1 : -1;
    } else if (paren > 1) {
      continue;
    } else if (c == '<' || c == '>') {
      angle = c == '<' ? angle + 1 : std::max(angle - 1, 0);
    } else if (c == '{' || c == '}') {
      brace += c == '{' ? 1 : -1;
    } else if (c == '[' || c == ']') {
      bracket += c == '[' ? 1 : -1;
    } else if (c == ',' && angle == 0 && brace == 0 && bracket == 0) {
      ++args;
    } else if (!IsSpace(c)) {
      any = true;
    }
  }
  return any ? args + 1 : 0;
}

// Keywords that look like calls (`if (`, `sizeof(`) but never name a function.
inline const std::unordered_set<std::string_view>& ControlKeywords() {
  static const std::unordered_set<std::string_view> kSet = {
      "if",       "for",     "while",    "switch",   "catch",       "return",
      "sizeof",   "alignof", "decltype", "noexcept", "static_cast", "dynamic_cast",
      "const_cast", "reinterpret_cast", "new", "delete", "else", "do", "case",
      "requires", "co_await", "co_return", "co_yield", "throw", "assert",
      "static_assert", "defined", "alignas", "typeid",
  };
  return kSet;
}

// ---------------------------------------------------------------------------------
// Declaration heads and the function index
// ---------------------------------------------------------------------------------

struct HeadInfo {
  enum Kind { kOther, kNamespace, kClass, kFunction } kind = kOther;
  std::string name;                     // scope name, or unqualified function name
  size_t name_off = 0;                  // function name token offset
  std::vector<std::string> qualifiers;  // explicit A::B:: chain before the name
  size_t params_begin = 0;              // inside the '(' ... ')' group
  size_t params_end = 0;
  size_t return_begin = 0;              // [return_begin, return_end): return-type text
  size_t return_end = 0;
  size_t tail_begin = 0;                // [tail_begin, head_end): qualifiers / ctor-init list
};

// Classifies the declaration head [begin, end) that ends at a '{'.
inline HeadInfo ClassifyHead(std::string_view code, size_t begin, size_t end) {
  HeadInfo info;
  size_t i = SkipSpace(code, begin);
  // Skip template<...> introducers and [[attributes]].
  while (i < end) {
    if (code.compare(i, 8, "template") == 0 && (i + 8 >= end || !IsIdentChar(code[i + 8]))) {
      size_t lt = SkipSpace(code, i + 8);
      if (lt < end && code[lt] == '<') {
        size_t past = MatchAngle(code, lt);
        if (past == npos || past > end) {
          return info;
        }
        i = SkipSpace(code, past);
        continue;
      }
    }
    if (code.compare(i, 2, "[[") == 0) {
      size_t close = code.find("]]", i + 2);
      if (close == npos || close >= end) {
        return info;
      }
      i = SkipSpace(code, close + 2);
      continue;
    }
    break;
  }
  if (i >= end) {
    return info;  // bare `{` — a plain block or an initializer
  }
  size_t head_begin = i;

  // Scope keywords before any top-level '(' make this a scope, not a function.
  static const std::unordered_set<std::string_view> kScopeKeywords = {
      "namespace", "class", "struct", "union", "enum"};
  int paren = 0;
  size_t scope_kw_at = npos;
  std::string_view scope_kw;
  size_t first_paren = npos;
  for (size_t j = head_begin; j < end;) {
    char c = code[j];
    if (IsIdentChar(c) && (j == 0 || !IsIdentChar(code[j - 1]))) {
      size_t k = j;
      while (k < end && IsIdentChar(code[k])) {
        ++k;
      }
      std::string_view tok = code.substr(j, k - j);
      if (paren == 0 && first_paren == npos && kScopeKeywords.count(tok) > 0) {
        scope_kw_at = j;
        scope_kw = tok;
        break;
      }
      j = k;
      continue;
    }
    if (c == '<') {
      size_t past = MatchAngle(code, j);
      if (past != npos && past <= end) {
        j = past;
        continue;
      }
    }
    if (c == '(') {
      if (paren == 0 && first_paren == npos) {
        first_paren = j;
      }
      ++paren;
    } else if (c == ')') {
      --paren;
    }
    ++j;
  }

  if (scope_kw_at != npos) {
    if (scope_kw == "namespace") {
      info.kind = HeadInfo::kNamespace;
    } else if (scope_kw == "class" || scope_kw == "struct") {
      info.kind = HeadInfo::kClass;
    } else {
      return info;  // enum/union: skip the body wholesale
    }
    // Scope name: the identifier after the keyword (skipping attributes and,
    // for classes, stopping before bases `: public X`).
    size_t j = SkipSpace(code, scope_kw_at + scope_kw.size());
    while (j < end && code.compare(j, 2, "[[") == 0) {
      size_t close = code.find("]]", j);
      if (close == npos) {
        break;
      }
      j = SkipSpace(code, close + 2);
    }
    size_t k = j;
    while (k < end && IsIdentChar(code[k])) {
      ++k;
    }
    info.name = std::string(code.substr(j, k - j));  // may be empty (anonymous)
    return info;
  }

  if (first_paren == npos) {
    return info;  // no parameter list — initializer, lambda body, etc.
  }
  size_t params_past = MatchParen(code, first_paren);
  if (params_past == npos || params_past > end) {
    return info;
  }

  // The token directly before '(' must be the function name (identifier,
  // ~identifier destructor, or operator-something).
  size_t before = PrevMeaningful(code, first_paren);
  if (before == npos || before < head_begin) {
    return info;
  }
  size_t name_end = before + 1;
  size_t name_begin = name_end;
  if (IsIdentChar(code[before])) {
    while (name_begin > head_begin && IsIdentChar(code[name_begin - 1])) {
      --name_begin;
    }
  } else {
    // operator+ / operator== / operator() etc: symbols back to `operator`.
    size_t op_end = name_end;
    while (op_end > head_begin && !IsIdentChar(code[op_end - 1]) && !IsSpace(code[op_end - 1])) {
      --op_end;
    }
    size_t op_begin = op_end;
    while (op_begin > head_begin && IsIdentChar(code[op_begin - 1])) {
      --op_begin;
    }
    if (code.substr(op_begin, op_end - op_begin) != "operator") {
      return info;
    }
    name_begin = op_begin;
  }
  std::string name(code.substr(name_begin, name_end - name_begin));
  if (name == "operator") {
    // `operator()` — the first paren group is part of the name; the parameter
    // list is the next group.
    size_t next = SkipSpace(code, params_past);
    if (next < end && code[next] == '(') {
      size_t past2 = MatchParen(code, next);
      if (past2 == npos || past2 > end) {
        return info;
      }
      name = "operator()";
      first_paren = next;
      params_past = past2;
    } else {
      name += std::string(code.substr(name_end, first_paren - name_end));
      while (!name.empty() && IsSpace(name.back())) {
        name.pop_back();
      }
    }
  }
  if (name.empty() || ControlKeywords().count(name) > 0) {
    return info;
  }
  if (name_begin > head_begin) {  // destructor tilde
    size_t prev = PrevMeaningful(code, name_begin);
    if (prev != npos && prev >= head_begin && code[prev] == '~') {
      name = "~" + name;
      name_begin = prev;
    }
  }

  // Walk the explicit qualifier chain A::B:: backwards (skipping template args).
  size_t chain_begin = name_begin;
  std::vector<std::string> quals;
  while (true) {
    size_t prev = PrevMeaningful(code, chain_begin);
    if (prev == npos || prev < head_begin || prev < 1 || code[prev] != ':' ||
        code[prev - 1] != ':') {
      break;
    }
    size_t q_end = PrevMeaningful(code, prev - 1);
    if (q_end == npos || q_end < head_begin) {
      break;
    }
    if (code[q_end] == '>') {
      // Foo<T>::bar — scan back to the matching '<'.
      int depth = 0;
      size_t j = q_end + 1;
      while (j > head_begin) {
        --j;
        if (code[j] == '>') {
          ++depth;
        } else if (code[j] == '<' && --depth == 0) {
          break;
        }
      }
      q_end = PrevMeaningful(code, j);
      if (q_end == npos || q_end < head_begin) {
        break;
      }
    }
    if (!IsIdentChar(code[q_end])) {
      break;
    }
    size_t q_begin = q_end + 1;
    while (q_begin > head_begin && IsIdentChar(code[q_begin - 1])) {
      --q_begin;
    }
    quals.insert(quals.begin(), std::string(code.substr(q_begin, q_end + 1 - q_begin)));
    chain_begin = q_begin;
  }

  info.kind = HeadInfo::kFunction;
  info.name = std::move(name);
  info.name_off = name_begin;
  info.qualifiers = std::move(quals);
  info.params_begin = first_paren + 1;
  info.params_end = params_past - 1;
  info.return_begin = head_begin;
  info.return_end = chain_begin;
  info.tail_begin = params_past;
  return info;
}

struct ParamDecl {
  std::string text;
  std::string name;  // last identifier, or empty
  size_t off = 0;    // offset of the first token
  bool has_default = false;
  bool is_pack = false;  // parameter pack / C varargs
};

// Splits the parameter list [begin, end) at its top-level commas.
inline std::vector<ParamDecl> SplitParams(std::string_view code, size_t begin, size_t end) {
  std::vector<ParamDecl> out;
  auto flush = [&](size_t start, size_t stop) {
    size_t s = SkipSpace(code, start);
    if (s >= stop) {
      return;
    }
    ParamDecl p;
    p.off = s;
    std::string_view t = code.substr(s, stop - s);
    p.text = std::string(t);
    // Parameter name: the last identifier before any `= default` initializer.
    size_t eq = npos;
    int paren = 0;
    int angle = 0;
    for (size_t j = 0; j < t.size() && eq == npos; ++j) {
      char c = t[j];
      if (c == '(' || c == ')') {
        paren += c == '(' ? 1 : -1;
      } else if (c == '<' || c == '>') {
        angle = c == '<' ? angle + 1 : std::max(angle - 1, 0);
      } else if (c == '=' && paren == 0 && angle == 0) {
        eq = j;
      }
    }
    p.has_default = eq != npos;
    p.is_pack = t.find("...") != npos;
    std::string_view decl = t.substr(0, eq);
    size_t name_end = decl.size();
    while (name_end > 0 && IsSpace(decl[name_end - 1])) {
      --name_end;
    }
    size_t name_begin = name_end;
    while (name_begin > 0 && IsIdentChar(decl[name_begin - 1])) {
      --name_begin;
    }
    if (name_end > name_begin && decl.back() != '>' && decl.back() != '&' &&
        decl.back() != '*') {
      p.name = std::string(decl.substr(name_begin, name_end - name_begin));
    }
    out.push_back(std::move(p));
  };
  int paren = 0;
  int angle = 0;
  int brace = 0;
  size_t start = begin;
  for (size_t i = begin; i < end; ++i) {
    char c = code[i];
    if (c == '(' || c == ')') {
      paren += c == '(' ? 1 : -1;
    } else if (c == '<' || c == '>') {
      angle = c == '<' ? angle + 1 : std::max(angle - 1, 0);
    } else if (c == '{' || c == '}') {
      brace += c == '{' ? 1 : -1;
    } else if (c == ',' && paren == 0 && angle == 0 && brace == 0) {
      flush(start, i);
      start = i + 1;
    }
  }
  flush(start, end);
  return out;
}

// One function definition found by IndexFunctions.
struct Definition {
  HeadInfo head;
  std::string qualified_name;  // enclosing classes + explicit qualifiers + name
  size_t open = 0;             // the body's '{'
  size_t close = 0;            // its matching '}' (code.size() when unbalanced)
  int first_line = 0;          // first line of the signature
  int open_line = 0;           // line of the '{'
};

// Every function definition in `s.code`, in source order, found by a forward
// structural scan: a namespace/class scope stack, with each '{' at paren
// depth 0 classified by the declaration head that precedes it. Bodies are
// skipped whole, so local classes and lambdas belong to their function.
inline std::vector<Definition> IndexFunctions(const Scrubbed& s) {
  std::string_view code = s.code;
  std::vector<std::pair<HeadInfo::Kind, std::string>> scopes;
  std::vector<Definition> out;
  size_t i = 0;
  size_t head_start = 0;
  int paren_depth = 0;
  for (; i < code.size(); ++i) {
    char c = code[i];
    if (c == '(' || c == ')') {
      paren_depth = c == '(' ? paren_depth + 1 : std::max(paren_depth - 1, 0);
      continue;
    }
    if (paren_depth > 0) {
      continue;
    }
    if (c == ';' || c == '}') {
      if (c == '}' && !scopes.empty()) {
        scopes.pop_back();
      }
      head_start = i + 1;
      continue;
    }
    if (c == ':') {
      if (i + 1 < code.size() && code[i + 1] == ':') {
        ++i;
        continue;
      }
      // Access specifiers reset the head; a ctor-init `:` must not.
      size_t prev = PrevMeaningful(code, i);
      if (prev != npos && IsIdentChar(code[prev])) {
        size_t b = prev + 1;
        while (b > 0 && IsIdentChar(code[b - 1])) {
          --b;
        }
        std::string_view word = code.substr(b, prev + 1 - b);
        if (word == "public" || word == "private" || word == "protected") {
          head_start = i + 1;
        }
      }
      continue;
    }
    if (c != '{') {
      continue;
    }
    HeadInfo head = ClassifyHead(code, head_start, i);
    if (head.kind != HeadInfo::kFunction) {
      scopes.emplace_back(head.kind, head.name);
      head_start = i + 1;
      continue;
    }
    size_t past = MatchBrace(code, i);
    Definition d;
    d.open = i;
    d.close = past == npos ? code.size() : past - 1;
    for (const auto& [kind, name] : scopes) {
      if (kind == HeadInfo::kClass && !name.empty()) {
        d.qualified_name += name + "::";
      }
    }
    for (const std::string& q : head.qualifiers) {
      d.qualified_name += q + "::";
    }
    d.qualified_name += head.name;
    d.first_line =
        s.LineOf(head.return_begin != head.return_end ? head.return_begin : head.name_off);
    d.open_line = s.LineOf(i);
    d.head = std::move(head);
    out.push_back(std::move(d));
    i = out.back().close;  // resume after the body
    head_start = i + 1;
  }
  return out;
}

}  // namespace ibus::cxxscan

#endif  // SRC_CXXSCAN_CXXSCAN_H_
