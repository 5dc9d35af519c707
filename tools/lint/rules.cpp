// Rule implementations for shflbw_lint (see lint.h for the catalogue).
// Every rule is a pass over the token stream from lexer.cpp; scoping
// and allowlists key on the repo-relative path. Adding a rule: add its
// name to kRules, implement a Check* pass, call it from LintSource,
// and give it a fire + suppressed golden fixture under
// tests/lint/fixtures/ (docs/STATIC_ANALYSIS.md, "Repo-contract lint").

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "lint/lint.h"

namespace shflbw {
namespace lint {
namespace {

// ---- rule catalogue ----------------------------------------------------

const char kRawSync[] = "raw-sync";
const char kHotPath[] = "hot-path";
const char kHotMarker[] = "hot-marker";
const char kDeterminism[] = "determinism";
const char kNodiscard[] = "nodiscard-status";
const char kLogging[] = "logging";
const char kBadSuppression[] = "bad-suppression";

const std::vector<std::string> kRules = {
    kRawSync,  kHotPath,   kHotMarker,       kDeterminism,
    kNodiscard, kLogging,  kBadSuppression,
};

// ---- path scoping ------------------------------------------------------

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool InSrc(const std::string& p) { return StartsWith(p, "src/"); }

// ---- suppression handling ----------------------------------------------

/// Collected SHFLBW_LINT_ALLOW grants: (line, rule) pairs. A grant on
/// line L covers findings on L (trailing comment) and L+1 (comment on
/// its own line above the site).
using Suppressions = std::set<std::pair<int, std::string>>;

std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Parses every SHFLBW_LINT_ALLOW occurrence in comment tokens.
/// Malformed suppressions (no rule list, unknown rule, missing ':',
/// empty justification) become bad-suppression findings and grant
/// nothing — a broken escape hatch must not silently widen.
Suppressions CollectSuppressions(const std::string& path,
                                 const std::vector<Token>& toks,
                                 std::vector<Finding>* findings) {
  static const char kTag[] = "SHFLBW_LINT_ALLOW";
  Suppressions out;
  for (const Token& t : toks) {
    if (t.kind != TokKind::kComment) continue;
    std::size_t at = t.text.find(kTag);
    while (at != std::string::npos) {
      const std::string rest = t.text.substr(at + sizeof(kTag) - 1);
      const auto bad = [&](const std::string& why) {
        findings->push_back(
            {path, t.line, kBadSuppression,
             "malformed SHFLBW_LINT_ALLOW: " + why +
                 " — the syntax is // SHFLBW_LINT_ALLOW(rule): justification, "
                 "and the justification is required"});
      };
      if (rest.empty() || rest[0] != '(') {
        // Prose mention ("see SHFLBW_LINT_ALLOW in the docs"), not a
        // suppression attempt — only '(' arms the parser.
        at = t.text.find(kTag, at + 1);
        continue;
      }
      const std::size_t close = rest.find(')');
      if (close == std::string::npos) {
        bad("unterminated rule list");
        break;
      }
      // Split the comma-separated rule list.
      std::vector<std::string> rules;
      std::stringstream list(rest.substr(1, close - 1));
      std::string item;
      bool ok = true;
      while (std::getline(list, item, ',')) {
        item = Trim(item);
        if (std::find(kRules.begin(), kRules.end(), item) == kRules.end()) {
          bad("unknown rule '" + item + "'");
          ok = false;
          break;
        }
        rules.push_back(item);
      }
      if (ok && rules.empty()) {
        bad("empty rule list");
        ok = false;
      }
      if (ok) {
        const std::string after = Trim(rest.substr(close + 1));
        if (after.empty() || after[0] != ':' || Trim(after.substr(1)).empty()) {
          bad("missing justification after ':'");
          ok = false;
        }
      }
      if (ok) {
        for (const std::string& r : rules) {
          out.insert({t.line, r});
          out.insert({t.line + 1, r});
        }
      }
      at = t.text.find(kTag, at + 1);
    }
  }
  return out;
}

// ---- shared pass plumbing ----------------------------------------------

struct Pass {
  const std::string& path;
  const std::vector<Token>& toks;
  const Suppressions& allow;
  std::vector<Finding>* findings;

  void Report(int line, const std::string& rule, const std::string& msg) const {
    if (allow.count({line, rule})) return;
    findings->push_back({path, line, rule, msg});
  }

  /// Index of the next non-comment token after i, or toks.size().
  std::size_t NextCode(std::size_t i) const {
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kComment) return j;
    }
    return toks.size();
  }

  /// Index of the previous non-comment token before i, or npos.
  std::size_t PrevCode(std::size_t i) const {
    for (std::size_t j = i; j-- > 0;) {
      if (toks[j].kind != TokKind::kComment) return j;
    }
    return static_cast<std::size_t>(-1);
  }

  bool IsIdent(std::size_t i, const char* text) const {
    return i < toks.size() && toks[i].kind == TokKind::kIdent &&
           toks[i].text == text;
  }
  bool IsPunct(std::size_t i, char c) const {
    return i < toks.size() && toks[i].kind == TokKind::kPunct &&
           toks[i].text.size() == 1 && toks[i].text[0] == c;
  }
  /// True when toks[i] is preceded immediately by `std ::`.
  bool StdQualified(std::size_t i) const {
    std::size_t c1 = PrevCode(i);
    if (c1 == static_cast<std::size_t>(-1) || !IsPunct(c1, ':')) return false;
    std::size_t c2 = PrevCode(c1);
    if (c2 == static_cast<std::size_t>(-1) || !IsPunct(c2, ':')) return false;
    std::size_t c3 = PrevCode(c2);
    return c3 != static_cast<std::size_t>(-1) && IsIdent(c3, "std");
  }
};

// ---- rule: raw-sync ----------------------------------------------------

void CheckRawSync(const Pass& p) {
  // The annotated layer is the only legitimate user of the std
  // primitives (and of their headers).
  if (p.path == "src/common/thread_annotations.h") return;
  static const std::set<std::string> kBanned = {
      "mutex",          "timed_mutex",        "recursive_mutex",
      "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
      "lock_guard",     "unique_lock",        "scoped_lock",
      "shared_lock",    "condition_variable", "condition_variable_any",
      "counting_semaphore",    "binary_semaphore", "latch", "barrier",
  };
  static const std::vector<std::string> kHeaders = {
      "<mutex>", "<condition_variable>", "<shared_mutex>",
      "<semaphore>", "<latch>", "<barrier>"};
  for (std::size_t i = 0; i < p.toks.size(); ++i) {
    const Token& t = p.toks[i];
    if (t.kind == TokKind::kDirective) {
      if (t.text.find("include") == std::string::npos) continue;
      for (const std::string& h : kHeaders) {
        if (t.text.find(h) != std::string::npos) {
          p.Report(t.line, kRawSync,
                   "#include " + h +
                       " bypasses the annotated locking layer; use "
                       "shflbw::Mutex / MutexLock / UniqueLock / CondVar "
                       "(common/thread_annotations.h)");
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent || !kBanned.count(t.text)) continue;
    if (!p.StdQualified(i)) continue;
    p.Report(t.line, kRawSync,
             "raw std::" + t.text +
                 " bypasses the annotated locking layer (capability "
                 "analysis + lock-order ranks); use shflbw::Mutex / "
                 "MutexLock / UniqueLock / CondVar "
                 "(common/thread_annotations.h)");
  }
}

// ---- rules: hot-path + hot-marker --------------------------------------

/// What a banned identifier means inside a SHFLBW_HOT region.
const std::map<std::string, const char*>& HotBanned() {
  static const std::map<std::string, const char*> kMap = {
      // Heap allocation / container growth: the kernel steady state
      // allocates nothing — scratch is prepared before the region.
      {"new", "heap allocation"},
      {"malloc", "heap allocation"},
      {"calloc", "heap allocation"},
      {"realloc", "heap allocation"},
      {"free", "heap free"},
      {"push_back", "container growth (allocates)"},
      {"emplace_back", "container growth (allocates)"},
      {"emplace", "container growth (allocates)"},
      {"resize", "container growth (allocates)"},
      {"reserve", "container growth (allocates)"},
      {"assign", "container refill (may allocate)"},
      {"insert", "container growth (allocates)"},
      {"append", "container growth (allocates)"},
      {"make_unique", "heap allocation"},
      {"make_shared", "heap allocation"},
      {"vector", "container construction (allocates)"},
      {"string", "string construction (allocates)"},
      {"basic_string", "string construction (allocates)"},
      {"to_string", "string construction (allocates)"},
      {"deque", "container construction (allocates)"},
      {"list", "container construction (allocates)"},
      {"map", "container construction (allocates)"},
      {"set", "container construction (allocates)"},
      {"unordered_map", "container construction (allocates)"},
      {"unordered_set", "container construction (allocates)"},
      {"ostringstream", "stream construction (allocates)"},
      {"stringstream", "stream construction (allocates)"},
      // Locking: kernels run inside ParallelFor chunks with no lock
      // held (thread_annotations.h header comment); taking one here
      // serializes the tile schedule or inverts the lock order.
      {"mutex", "locking"},
      {"timed_mutex", "locking"},
      {"recursive_mutex", "locking"},
      {"shared_mutex", "locking"},
      {"lock_guard", "locking"},
      {"unique_lock", "locking"},
      {"scoped_lock", "locking"},
      {"shared_lock", "locking"},
      {"condition_variable", "locking"},
      {"condition_variable_any", "locking"},
      {"Mutex", "locking"},
      {"MutexLock", "locking"},
      {"UniqueLock", "locking"},
      {"CondVar", "locking"},
      {"lock", "locking"},
      {"unlock", "locking"},
      {"try_lock", "locking"},
      // I/O: syscalls in an inner loop destroy the perf contract.
      {"cout", "I/O"},
      {"cerr", "I/O"},
      {"clog", "I/O"},
      {"printf", "I/O"},
      {"fprintf", "I/O"},
      {"puts", "I/O"},
      {"fputs", "I/O"},
      {"fopen", "I/O"},
      {"fwrite", "I/O"},
      {"fread", "I/O"},
      {"ofstream", "I/O"},
      {"ifstream", "I/O"},
      {"fstream", "I/O"},
      // Throwing: unwinding out of a ParallelFor chunk aborts the whole
      // region; checks belong before the loop.
      {"throw", "throws"},
      {"SHFLBW_CHECK", "throws (and allocates on failure)"},
      {"SHFLBW_CHECK_MSG", "throws (and allocates on failure)"},
  };
  return kMap;
}

void CheckHotRegions(const Pass& p) {
  // The macro definitions themselves live here.
  if (p.path == "src/common/hot_path.h") return;
  bool in_region = false;
  int open_line = 0;
  for (std::size_t i = 0; i < p.toks.size(); ++i) {
    const Token& t = p.toks[i];
    if (t.kind == TokKind::kIdent && t.text == "SHFLBW_HOT_BEGIN") {
      if (in_region) {
        p.Report(t.line, kHotMarker,
                 "nested SHFLBW_HOT_BEGIN (region already open since line " +
                     std::to_string(open_line) + ")");
      }
      in_region = true;
      open_line = t.line;
      continue;
    }
    if (t.kind == TokKind::kIdent && t.text == "SHFLBW_HOT_END") {
      if (!in_region) {
        p.Report(t.line, kHotMarker,
                 "SHFLBW_HOT_END without a matching SHFLBW_HOT_BEGIN");
      }
      in_region = false;
      continue;
    }
    if (!in_region || t.kind != TokKind::kIdent) continue;
    const auto it = HotBanned().find(t.text);
    if (it == HotBanned().end()) continue;
    p.Report(t.line, kHotPath,
             "'" + t.text + "' inside a SHFLBW_HOT region: " + it->second +
                 " — kernel inner loops must not allocate, lock, do I/O or "
                 "throw (common/hot_path.h)");
  }
  if (in_region) {
    p.Report(open_line, kHotMarker,
             "SHFLBW_HOT_BEGIN region never closed (no SHFLBW_HOT_END "
             "before end of file)");
  }
}

// ---- rule: determinism -------------------------------------------------

void CheckDeterminism(const Pass& p) {
  const bool in_src = InSrc(p.path);
  static const std::set<std::string> kRandom = {
      "rand", "srand", "rand_r", "drand48", "random_device"};
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::vector<std::string> kBadPragma = {
      "fast-math", "fast_math", "float_control", "FP_CONTRACT"};
  for (std::size_t i = 0; i < p.toks.size(); ++i) {
    const Token& t = p.toks[i];
    if (t.kind == TokKind::kDirective) {
      // Fast-math-style pragmas break bit-identity in ANY scanned file
      // (a bench compiled differently would invalidate its own gates).
      if (t.text.find("pragma") == std::string::npos) continue;
      for (const std::string& bad : kBadPragma) {
        if (t.text.find(bad) != std::string::npos) {
          p.Report(t.line, kDeterminism,
                   "'" + bad +
                       "' pragma relaxes FP semantics; outputs must stay "
                       "bit-identical at any thread count");
        }
      }
      if (t.text.find("GCC") != std::string::npos &&
          t.text.find("optimize") != std::string::npos) {
        p.Report(t.line, kDeterminism,
                 "per-function optimization pragma can change FP codegen; "
                 "outputs must stay bit-identical at any thread count");
      }
      continue;
    }
    if (!in_src || t.kind != TokKind::kIdent) continue;
    if (kRandom.count(t.text)) {
      p.Report(t.line, kDeterminism,
               "'" + t.text +
                   "' is a nondeterministic source; use the seeded "
                   "generators in common/rng.h");
      continue;
    }
    if (kUnordered.count(t.text)) {
      p.Report(t.line, kDeterminism,
               "std::" + t.text +
                   " has unspecified iteration order, which must not feed "
                   "ExecutionPlan or outputs; use std::map / sorted vectors");
      continue;
    }
    if ((t.text == "time" || t.text == "clock") &&
        p.IsPunct(p.NextCode(i), '(') && !p.StdQualified(i)) {
      // Bare C time()/clock() calls; std::chrono named clocks tokenize
      // as distinct identifiers (steady_clock) and are fine — wall
      // time may be *measured*, it must never steer a plan or kernel.
      std::size_t prev = p.PrevCode(i);
      const bool member = prev != static_cast<std::size_t>(-1) &&
                          (p.IsPunct(prev, '.') || p.IsPunct(prev, ':') ||
                           p.IsPunct(prev, '>'));
      if (!member) {
        p.Report(t.line, kDeterminism,
                 "'" + t.text +
                     "()' injects wall-clock state; seed from options, "
                     "never from time");
      }
    }
  }
}

// ---- rule: nodiscard-status --------------------------------------------

/// True when toks[i] sits at the end of an attribute specifier
/// [[ ... ]] whose content mentions `nodiscard`.
bool AttributeBeforeHasNodiscard(const Pass& p, std::size_t i) {
  std::size_t c1 = p.PrevCode(i);
  if (c1 == static_cast<std::size_t>(-1) || !p.IsPunct(c1, ']')) return false;
  std::size_t c2 = p.PrevCode(c1);
  if (c2 == static_cast<std::size_t>(-1) || !p.IsPunct(c2, ']')) return false;
  // Scan back to the matching [[, collecting identifiers.
  bool saw = false;
  std::size_t j = c2;
  while (j-- > 0) {
    const Token& t = p.toks[j];
    if (t.kind == TokKind::kComment) continue;
    if (t.kind == TokKind::kIdent && t.text == "nodiscard") saw = true;
    if (t.kind == TokKind::kPunct && t.text == "[") {
      std::size_t k = p.PrevCode(j);
      if (k != static_cast<std::size_t>(-1) && p.IsPunct(k, '[')) return saw;
    }
  }
  return false;
}

void CheckNodiscardStatus(const Pass& p) {
  if (!InSrc(p.path)) return;
  static const std::set<std::string> kStatusTypes = {"SubmitStatus",
                                                     "ResponseStatus"};
  for (std::size_t i = 0; i < p.toks.size(); ++i) {
    const Token& t = p.toks[i];
    if (t.kind != TokKind::kIdent || !kStatusTypes.count(t.text)) continue;
    // Candidate declaration: `<Status> name (` with an UNQUALIFIED
    // name. `Status Class::name(` is an out-of-line definition — the
    // attribute binds at the in-class declaration, which is the site
    // this rule checks.
    const std::size_t name = p.NextCode(i);
    if (name >= p.toks.size() || p.toks[name].kind != TokKind::kIdent) continue;
    const std::size_t paren = p.NextCode(name);
    if (!p.IsPunct(paren, '(')) continue;
    // Not a type usage: `enum class SubmitStatus`, casts, scoped
    // enumerators and template arguments never match ident+'(' above;
    // `SubmitStatus(x)` functional casts have no name token. Walk the
    // declaration specifiers backwards past the qualifier/specifier
    // run to find the attribute (if any).
    std::size_t back = i;
    for (;;) {
      std::size_t prev = p.PrevCode(back);
      if (prev == static_cast<std::size_t>(-1)) break;
      const Token& pt = p.toks[prev];
      if (pt.kind == TokKind::kIdent &&
          (pt.text == "virtual" || pt.text == "static" ||
           pt.text == "inline" || pt.text == "constexpr" ||
           pt.text == "explicit" || pt.text == "friend" ||
           pt.text == "const")) {
        back = prev;
        continue;
      }
      // Qualified return type (runtime::SubmitStatus): step over `ns ::`.
      if (pt.kind == TokKind::kPunct && pt.text == ":") {
        std::size_t c2 = p.PrevCode(prev);
        if (c2 != static_cast<std::size_t>(-1) && p.IsPunct(c2, ':')) {
          std::size_t ns = p.PrevCode(c2);
          if (ns != static_cast<std::size_t>(-1) &&
              p.toks[ns].kind == TokKind::kIdent) {
            back = ns;
            continue;
          }
        }
      }
      break;
    }
    if (AttributeBeforeHasNodiscard(p, back)) continue;
    p.Report(p.toks[name].line, kNodiscard,
             "'" + p.toks[name].text + "' returns " + t.text +
                 " and must be declared [[nodiscard]] — a dropped status is "
                 "a silently lost rejection");
  }
}

// ---- rule: logging -----------------------------------------------------

void CheckLogging(const Pass& p) {
  // Benches, examples and tests print by design; the library reports
  // through return values, exceptions and the obs sinks.
  if (!InSrc(p.path)) return;
  static const std::set<std::string> kStreams = {"cout", "cerr", "clog"};
  static const std::set<std::string> kCalls = {"printf", "fprintf", "puts",
                                               "fputs", "putchar"};
  // File output is confined to the sanctioned dump sinks:
  // trace/statusz/flight-recorder dumps, and weight serialization.
  // Everything else in src/ opening or writing files is a smuggled
  // side channel the operator can't find, rotate, or turn off.
  static const std::set<std::string> kFileSinks = {
      "src/obs/trace.cpp", "src/obs/statusz.cpp",
      "src/obs/flight_recorder.cpp", "src/format/serialize.cpp"};
  static const std::set<std::string> kFileWriters = {"ofstream", "fopen",
                                                     "fwrite", "freopen"};
  const bool file_sink = kFileSinks.count(p.path) > 0;
  for (std::size_t i = 0; i < p.toks.size(); ++i) {
    const Token& t = p.toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (!file_sink && kFileWriters.count(t.text)) {
      const bool is_type = t.text == "ofstream";
      const bool is_call = p.IsPunct(p.NextCode(i), '(');
      std::size_t prev = p.PrevCode(i);
      const bool member = prev != static_cast<std::size_t>(-1) &&
                          (p.IsPunct(prev, '.') || p.IsPunct(prev, '>'));
      if ((is_type || is_call) && !member) {
        p.Report(t.line, kLogging,
                 "'" + t.text +
                     "' opens a file in library code; file output is "
                     "confined to the sanctioned sinks (trace, statusz, "
                     "flight recorder, serialize)");
        continue;
      }
    }
    if (kStreams.count(t.text) && p.StdQualified(i)) {
      p.Report(t.line, kLogging,
               "std::" + t.text +
                   " in library code; report through a return value, an "
                   "exception or the obs sinks");
      continue;
    }
    if (kCalls.count(t.text) && p.IsPunct(p.NextCode(i), '(')) {
      std::size_t prev = p.PrevCode(i);
      const bool member = prev != static_cast<std::size_t>(-1) &&
                          (p.IsPunct(prev, '.') || p.IsPunct(prev, '>'));
      if (!member) {
        p.Report(t.line, kLogging,
                 "'" + t.text +
                     "' in library code; report through a return value, "
                     "an exception or the obs sinks");
      }
    }
  }
}

}  // namespace

const std::vector<std::string>& RuleNames() { return kRules; }

std::string FormatFinding(const Finding& f) {
  std::ostringstream os;
  os << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return os.str();
}

std::vector<Finding> LintSource(const std::string& relpath,
                                const std::string& source) {
  const std::vector<Token> toks = Tokenize(source);
  std::vector<Finding> findings;
  const Suppressions allow = CollectSuppressions(relpath, toks, &findings);
  const Pass p{relpath, toks, allow, &findings};
  CheckRawSync(p);
  CheckHotRegions(p);
  CheckDeterminism(p);
  CheckNodiscardStatus(p);
  CheckLogging(p);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

}  // namespace lint
}  // namespace shflbw
