// shflbw_lint: the repo-contract static analyzer. Where clang-tidy and
// the thread-safety probes (docs/STATIC_ANALYSIS.md) catch generic C++
// mistakes, this tool enforces the contracts that are specific to THIS
// codebase — the guarantees PRs 1-8 built and that only convention
// protected until now:
//
//   raw-sync          std::mutex / std::lock_guard / std::condition_variable
//                     and friends are forbidden outside
//                     src/common/thread_annotations.h: the annotated
//                     wrappers are the single authoritative locking
//                     layer (capability analysis + lock-order ranks).
//   hot-path          inside SHFLBW_HOT_BEGIN/SHFLBW_HOT_END marker
//                     regions (common/hot_path.h — every kernel inner
//                     loop) no heap allocation, locking, I/O or throw:
//                     the zero-steady-state-allocation contract of the
//                     kernel layer, now machine-checked.
//   hot-marker        marker discipline itself: nested BEGIN, END
//                     without BEGIN, region left open at EOF.
//   determinism       no std::rand / srand / random_device / time() /
//                     clock() in src/, no unordered-container types in
//                     src/ (iteration order feeds ExecutionPlan and
//                     outputs), no fast-math-style pragmas anywhere:
//                     bit-identical output at any thread count is the
//                     repo's core guarantee.
//   nodiscard-status  every unqualified declaration of a function
//                     returning a typed status (SubmitStatus,
//                     ResponseStatus) must carry [[nodiscard]] — a
//                     dropped admission verdict is a silently lost
//                     rejection. Out-of-line definitions (Name spelled
//                     Class::Name) are exempt: the attribute binds at
//                     the in-class declaration.
//   logging           no console output (std::cout / std::cerr /
//                     printf) in src/, and file output (ofstream /
//                     fopen / fwrite / freopen) only in the sanctioned
//                     dump sinks (obs/trace, obs/statusz,
//                     obs/flight_recorder, format/serialize);
//                     bench/, examples/ and tests/ are out of scope.
//   bad-suppression   a malformed SHFLBW_LINT_ALLOW comment (missing
//                     or empty justification, unknown rule name).
//
// Suppression syntax, honoured on the finding's line or the line
// directly above it:
//
//   // SHFLBW_LINT_ALLOW(rule[,rule...]): justification text
//
// The justification is REQUIRED and must be non-empty — a suppression
// states why the contract does not apply at this site, not merely that
// the author wanted the warning gone. Malformed suppressions are
// findings themselves and do not suppress anything.
//
// Deliberately clang-independent: a hand-rolled C++ lexer (comments,
// string/char/raw-string literals, preprocessor lines, identifiers)
// plus token-pattern rules. That keeps the gate runnable on the plain
// GCC tier-1 toolchain, fast enough for the default ctest suite
// (whole tree in well under a second), and trivially extensible — see
// docs/STATIC_ANALYSIS.md "Repo-contract lint" for how to add a rule.
#pragma once

#include <string>
#include <vector>

namespace shflbw {
namespace lint {

enum class TokKind {
  kIdent,      // identifiers and keywords (new, throw, push_back, ...)
  kNumber,     // numeric literals
  kString,     // "..." and R"(...)" (content dropped)
  kChar,       // '...'
  kPunct,      // one punctuation character per token
  kComment,    // // and /* */ comments, text preserved (suppressions)
  kDirective,  // one whole preprocessor line incl. \-continuations
};

struct Token {
  TokKind kind = TokKind::kIdent;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

/// Tokenizes C++ source. Never fails: unterminated literals simply end
/// at EOF. Line numbers are exact, which is all the rules need.
std::vector<Token> Tokenize(const std::string& source);

struct Finding {
  std::string path;  // repo-relative, forward slashes
  int line = 0;
  std::string rule;
  std::string message;
};

/// "path:line: [rule] message" — the one stable diagnostic format,
/// asserted verbatim by the golden tests.
std::string FormatFinding(const Finding& f);

/// Every rule name the tool can emit (and SHFLBW_LINT_ALLOW accepts).
const std::vector<std::string>& RuleNames();

/// Lints one file's contents. `relpath` is the repo-relative path with
/// forward slashes ("src/kernels/spmm_csr.cpp") — rule scoping and the
/// per-rule allowlists key on it, so callers (and the golden tests)
/// can lint any buffer as if it lived at any path. Findings are sorted
/// by line.
std::vector<Finding> LintSource(const std::string& relpath,
                                const std::string& source);

}  // namespace lint
}  // namespace shflbw
