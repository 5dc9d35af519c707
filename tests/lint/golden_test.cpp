// Golden tests for shflbw_lint (tools/lint/). Each fixture under
// tests/lint/fixtures/ is a source file plus a <name>.expected sidecar:
//
//   # path: src/runtime/widget.cpp     <- pretend repo path (scoping)
//   2 raw-sync                         <- expected line + rule, one per
//   11 raw-sync                           finding (duplicates allowed)
//
// The fixture is linted in-process via LintSource under its pretend
// path and the (line, rule) multiset must match exactly — a missing
// finding, an extra finding, or a finding on the wrong line all fail.
// The fixtures deliberately violate the rules, which is why the CLI's
// tree walk skips tests/lint/fixtures entirely.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.h"

namespace shflbw {
namespace lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "cannot open " << p;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

struct Manifest {
  std::string pretend_path;
  std::multimap<int, std::string> expected;  // line -> rule
};

Manifest ParseManifest(const fs::path& p) {
  Manifest m;
  std::istringstream in(ReadFile(p));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# path: ", 0) == 0) {
      m.pretend_path = line.substr(8);
      continue;
    }
    std::istringstream row(line);
    int lineno = 0;
    std::string rule;
    row >> lineno >> rule;
    EXPECT_TRUE(lineno > 0 && !rule.empty()) << "bad manifest row: " << line;
    m.expected.emplace(lineno, rule);
  }
  EXPECT_FALSE(m.pretend_path.empty()) << p << " has no '# path:' header";
  return m;
}

TEST(LintGolden, FixturesMatchManifests) {
  const fs::path dir = SHFLBW_LINT_FIXTURE_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  int fixtures = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const fs::path manifest_path = entry.path();
    if (manifest_path.extension() != ".expected") continue;
    ++fixtures;
    SCOPED_TRACE(manifest_path.filename().string());
    const Manifest manifest = ParseManifest(manifest_path);
    fs::path src_path = manifest_path;
    src_path.replace_extension();  // strip ".expected"
    const std::vector<Finding> got =
        LintSource(manifest.pretend_path, ReadFile(src_path));
    std::multimap<int, std::string> actual;
    for (const Finding& f : got) {
      EXPECT_EQ(f.path, manifest.pretend_path);
      actual.emplace(f.line, f.rule);
    }
    if (actual != manifest.expected) {
      std::ostringstream diff;
      diff << "expected findings:\n";
      for (const auto& [line, rule] : manifest.expected) {
        diff << "  " << line << " " << rule << "\n";
      }
      diff << "actual findings:\n";
      for (const Finding& f : got) diff << "  " << FormatFinding(f) << "\n";
      ADD_FAILURE() << diff.str();
    }
  }
  // A fixture silently dropped (renamed, glob typo) must not pass.
  EXPECT_GE(fixtures, 15) << "fixture corpus shrank";
}

TEST(LintGolden, DiagnosticFormatIsStable) {
  // The exact text CI greps and humans read — locked here once.
  const std::vector<Finding> got = LintSource(
      "src/runtime/widget.cpp", "#include <mutex>\n");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(FormatFinding(got[0]),
            "src/runtime/widget.cpp:1: [raw-sync] #include <mutex> bypasses "
            "the annotated locking layer; use shflbw::Mutex / MutexLock / "
            "UniqueLock / CondVar (common/thread_annotations.h)");
}

TEST(LintGolden, SuppressionRequiresJustification) {
  // The justification is load-bearing: the same suppression with and
  // without one.
  const std::string with =
      "// SHFLBW_LINT_ALLOW(raw-sync): interop shim\nstd::mutex m;\n";
  EXPECT_TRUE(LintSource("src/a.cpp", with).empty());

  const std::string without =
      "// SHFLBW_LINT_ALLOW(raw-sync)\nstd::mutex m;\n";
  const std::vector<Finding> got = LintSource("src/a.cpp", without);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].rule, "bad-suppression");
  EXPECT_EQ(got[1].rule, "raw-sync");
}

TEST(LintGolden, SuppressionCoversOwnAndNextLineOnly) {
  const std::string two_below =
      "// SHFLBW_LINT_ALLOW(raw-sync): too far away\n\nstd::mutex m;\n";
  const std::vector<Finding> got = LintSource("src/a.cpp", two_below);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].rule, "raw-sync");
  EXPECT_EQ(got[0].line, 3);
}

TEST(LintGolden, StringsAndCommentsAreNotCode) {
  // The classic grep failure mode the lexer exists to avoid.
  const std::string src =
      "// std::mutex in a comment\n"
      "const char* s = \"std::mutex in a string\";\n"
      "/* rand() time( std::cout in a block comment */\n";
  EXPECT_TRUE(LintSource("src/a.cpp", src).empty());
}

TEST(LintGolden, RuleNamesAreExhaustive) {
  const std::vector<std::string>& rules = RuleNames();
  for (const char* expected :
       {"raw-sync", "hot-path", "hot-marker", "determinism",
        "nodiscard-status", "logging", "bad-suppression"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), expected), rules.end())
        << expected;
  }
  EXPECT_EQ(rules.size(), 7u);
}

}  // namespace
}  // namespace lint
}  // namespace shflbw
