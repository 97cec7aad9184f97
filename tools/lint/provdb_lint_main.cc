// provdb_lint CLI: scans the repository's src/ tree (or explicit paths)
// for violations of the determinism / checked-verification rules in
// lint.h. Registered as a ctest so `ctest` alone catches violations.
//
// Usage:
//   provdb_lint [--root <repo-root>] [--fix-suggestions] [--list-rules]
//               [paths...]
//
// Paths are repo-relative files or directories (default: src). Exit
// status: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace fs = std::filesystem;
using provdb::lint::Finding;
using provdb::lint::Linter;
using provdb::lint::TestFile;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

/// Repo-relative path with '/' separators.
std::string Relative(const fs::path& path, const fs::path& root) {
  std::string rel = fs::relative(path, root).generic_string();
  return rel;
}

/// All source files under `start` (file or directory), sorted so output
/// and exit behaviour are deterministic.
std::vector<fs::path> CollectSources(const fs::path& start) {
  std::vector<fs::path> files;
  std::error_code ec;
  if (fs::is_regular_file(start, ec)) {
    files.push_back(start);
  } else if (fs::is_directory(start, ec)) {
    for (const auto& entry :
         fs::recursive_directory_iterator(start, ec)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool fix_suggestions = false;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--fix-suggestions") {
      fix_suggestions = true;
    } else if (arg == "--list-rules") {
      for (const auto& rule : provdb::lint::Rules()) {
        std::printf("%s  %-18s %s\n", rule.id, rule.name, rule.summary);
      }
      return 0;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(std::string("--root=").size());
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: provdb_lint [--root <repo-root>] [--fix-suggestions] "
          "[--list-rules] [paths...]\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "provdb_lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      targets.push_back(arg);
    }
  }
  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::fprintf(stderr, "provdb_lint: bad --root: %s\n",
                 ec.message().c_str());
    return 2;
  }
  if (targets.empty()) targets.push_back("src");

  // Test corpus for R05: every source file under tests/.
  Linter linter;
  std::vector<TestFile> corpus;
  for (const fs::path& path : CollectSources(root / "tests")) {
    TestFile test;
    test.path = Relative(path, root);
    if (ReadFile(path, &test.content)) corpus.push_back(std::move(test));
  }
  linter.SetTestCorpus(std::move(corpus));

  // Read every target first: R09 needs the PROVDB_REQUIRES declarations
  // of the whole tree (a header's) before it lints any body (a .cc's).
  std::vector<std::pair<std::string, std::string>> sources;  // path, text
  for (const std::string& target : targets) {
    fs::path start = fs::path(target).is_absolute() ? fs::path(target)
                                                    : root / target;
    std::vector<fs::path> files = CollectSources(start);
    if (files.empty()) {
      std::fprintf(stderr, "provdb_lint: no source files under %s\n",
                   start.string().c_str());
      return 2;
    }
    for (const fs::path& file : files) {
      std::string content;
      if (!ReadFile(file, &content)) {
        std::fprintf(stderr, "provdb_lint: cannot read %s\n",
                     file.string().c_str());
        return 2;
      }
      linter.AddLockRequiringDeclarations(content);
      sources.emplace_back(Relative(file, root), std::move(content));
    }
  }

  const size_t files_scanned = sources.size();
  std::vector<Finding> findings;
  for (const auto& [path, content] : sources) {
    for (Finding& finding : linter.LintContent(path, content)) {
      findings.push_back(std::move(finding));
    }
  }

  for (const Finding& finding : findings) {
    std::printf("%s\n", finding.ToString(fix_suggestions).c_str());
  }
  std::printf("provdb_lint: %zu file%s scanned, %zu finding%s\n",
              files_scanned, files_scanned == 1 ? "" : "s", findings.size(),
              findings.size() == 1 ? "" : "s");
  return findings.empty() ? 0 : 1;
}
