// The source-file collector the analyzer CLIs share: PATH arguments relative
// to --root expand into a sorted file list (directories recurse), so every
// tool reports the same files in the same order. Header-only, like cxxscan.h.
#ifndef SRC_CXXSCAN_FILES_H_
#define SRC_CXXSCAN_FILES_H_

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cxxscan/cxxscan.h"

namespace ibus::cxxscan {

inline bool IsCppSource(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

inline bool ReadFile(const std::filesystem::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Every file under `targets` (each relative to `root`): a directory contributes
// the regular files `keep` accepts, recursively; a file named directly is taken
// as is. Targets that name nothing are appended to `missing`. Sorted by path.
template <typename Keep>
std::vector<std::filesystem::path> CollectFiles(const std::filesystem::path& root,
                                                const std::vector<std::string>& targets,
                                                Keep&& keep,
                                                std::vector<std::filesystem::path>* missing) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const std::string& t : targets) {
    fs::path p = root / t;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && keep(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      missing->push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Reads every C++ source under `targets` with its root-relative path. On a
// missing target or an unreadable file, prints "<tool>: ..." to stderr and
// returns false.
inline bool LoadSources(const std::filesystem::path& root,
                        const std::vector<std::string>& targets, std::string_view tool,
                        std::vector<SourceFile>* out) {
  std::vector<std::filesystem::path> missing;
  auto files = CollectFiles(root, targets, IsCppSource, &missing);
  if (!missing.empty()) {
    std::cerr << tool << ": no such path: " << missing.front().string() << "\n";
    return false;
  }
  for (const auto& f : files) {
    SourceFile source{std::filesystem::relative(f, root).generic_string(), ""};
    if (!ReadFile(f, &source.content)) {
      std::cerr << tool << ": cannot read " << f.string() << "\n";
      return false;
    }
    out->push_back(std::move(source));
  }
  return true;
}

}  // namespace ibus::cxxscan

#endif  // SRC_CXXSCAN_FILES_H_
