// tdlcheck CLI: static analysis + schema-evolution compatibility for TDL.
//
//   tdlcheck [--root DIR] PATH...             lint .tdl scripts (dirs recurse)
//   tdlcheck [--root DIR] --embedded PATH...  lint R"tdl(...)tdl" blocks in C++
//   tdlcheck --compat OLD.tdl NEW.tdl         classify schema changes
//
// Exit codes: 0 clean / all changes wire-safe, 1 diagnostics or a wire-breaking
// change, 2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "src/cxxscan/files.h"
#include "src/tdl/parser.h"
#include "src/tdlcheck/tdlcheck.h"

namespace fs = std::filesystem;

namespace {

using ibus::cxxscan::ReadFile;

// One R"tdl(...)tdl" block found in a C++ source.
struct EmbeddedScript {
  std::string content;
  int start_line = 1;  // 1-based line of the block's first content character
};

// Extracts every R"tdl( ... )tdl" raw string. The "tdl" delimiter is the repo
// convention for embedded scripts (examples/tdlsh.cpp); generic raw strings are
// not scanned because arbitrary C++ string content is rarely TDL. The shared
// scrubber sets comments and ordinary string literals aside first, so a file
// *talking about* the R"tdl()tdl" convention (this one, say) is not mistaken
// for shipping a script.
std::vector<EmbeddedScript> ExtractEmbedded(const std::string& source) {
  ibus::cxxscan::Scrubbed s = ibus::cxxscan::Scrub(source);
  std::vector<size_t> quotes(s.raw_literals.begin(), s.raw_literals.end());
  std::sort(quotes.begin(), quotes.end());
  std::vector<EmbeddedScript> out;
  for (size_t q : quotes) {
    if (source.compare(q + 1, 4, "tdl(") == 0) {
      out.push_back({s.literals.at(q), s.LineOf(q)});
    }
  }
  return out;
}

int RunCompat(const std::string& old_path, const std::string& new_path) {
  std::string old_src;
  std::string new_src;
  if (!ReadFile(old_path, &old_src) || !ReadFile(new_path, &new_src)) {
    std::cerr << "tdlcheck: cannot read compat inputs\n";
    return 2;
  }
  auto parse = [](const std::string& path, const std::string& src,
                  ibus::tdlcheck::ScriptModel* model) {
    ibus::TdlParseError err;
    auto forms = ibus::ParseTdl(src, &err);
    if (!forms.ok()) {
      std::cerr << path << ":" << err.line << ":" << err.col << ": [parse-error] " << err.what
                << "\n";
      return false;
    }
    *model = ibus::tdlcheck::CollectModel(*forms);
    return true;
  };
  ibus::tdlcheck::ScriptModel old_model;
  ibus::tdlcheck::ScriptModel new_model;
  if (!parse(old_path, old_src, &old_model) || !parse(new_path, new_src, &new_model)) {
    return 2;
  }
  auto changes = ibus::tdlcheck::DiffModels(old_model, new_model);
  size_t breaking = 0;
  for (const auto& c : changes) {
    std::cout << c.ToString() << "\n";
    if (c.breaking) {
      ++breaking;
    }
  }
  if (breaking > 0) {
    std::cout << "tdlcheck: " << breaking << " wire-breaking change(s)\n";
    return 1;
  }
  std::cout << "tdlcheck: compatible (" << changes.size() << " wire-safe change(s))\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool embedded = false;
  bool compat = false;
  std::vector<std::string> targets;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--embedded") {
      embedded = true;
    } else if (arg == "--compat") {
      compat = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: tdlcheck [--root DIR] [--embedded] PATH...\n"
                   "       tdlcheck --compat OLD.tdl NEW.tdl\n";
      return 0;
    } else {
      targets.push_back(arg);
    }
  }
  if (compat) {
    if (embedded || targets.size() != 2) {
      std::cerr << "usage: tdlcheck --compat OLD.tdl NEW.tdl\n";
      return 2;
    }
    return RunCompat((root / targets[0]).string(), (root / targets[1]).string());
  }
  if (targets.empty()) {
    std::cerr << "tdlcheck: no paths given (try: tdlcheck --root REPO examples/scripts)\n";
    return 2;
  }

  std::vector<fs::path> missing;
  std::vector<fs::path> files = ibus::cxxscan::CollectFiles(
      root, targets,
      [&](const fs::path& p) {
        return embedded ? ibus::cxxscan::IsCppSource(p) : p.extension() == ".tdl";
      },
      &missing);
  for (const fs::path& p : missing) {
    std::cerr << "tdlcheck: no such path: " << p.string() << "\n";
  }
  if (!missing.empty()) {
    return 2;
  }
  size_t diagnostics = 0;
  size_t scripts = 0;
  for (const fs::path& f : files) {
    std::string source;
    if (!ReadFile(f, &source)) {
      std::cerr << "tdlcheck: cannot read " << f.string() << "\n";
      return 2;
    }
    const std::string rel = fs::relative(f, root).generic_string();
    if (!embedded) {
      ++scripts;
      for (const auto& d : ibus::tdlcheck::CheckScript(rel, source)) {
        std::cout << d.ToString() << "\n";
        ++diagnostics;
      }
      continue;
    }
    for (const EmbeddedScript& block : ExtractEmbedded(source)) {
      ++scripts;
      for (auto d : ibus::tdlcheck::CheckScript(rel, block.content)) {
        // Map block-relative lines onto the enclosing C++ file.
        d.line += block.start_line - 1;
        std::cout << d.ToString() << "\n";
        ++diagnostics;
      }
    }
  }
  if (diagnostics > 0) {
    std::cout << "tdlcheck: " << diagnostics << " diagnostic(s) in " << scripts
              << " script(s)\n";
    return 1;
  }
  std::cout << "tdlcheck: clean (" << scripts << " scripts, " << files.size() << " files)\n";
  return 0;
}
