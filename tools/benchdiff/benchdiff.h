// benchdiff: the bench-trajectory regression gate (tools/benchdiff).
//
// Compares two BENCH_*.json runs (bench/ emits them; CI commits the
// blessed baselines at the repo root) metric by metric: every numeric
// leaf of the two documents is flattened to a stable dotted path,
// matched against an ordered rule list that says which direction is
// "better" and how much movement is noise, and anything that moved
// beyond its threshold in the bad direction is a regression. The CLI
// exits nonzero on regressions, so CI can gate merges on the committed
// baselines without hand-curating a metric list — new metrics start
// informational until a rule claims them.
//
// Self-contained (no third-party JSON dependency): the parser below
// handles the subset bench/ emits — objects, arrays, numbers, strings,
// bools, null — and is strict about everything else. The same parser
// doubles as the validity oracle for BatchServer::StatusJson() in
// tests/runtime/statusz_test.cpp.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shflbw {
namespace benchdiff {

// ---- JSON ---------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  /// Insertion order preserved (duplicate keys kept; first wins in
  /// Find), so flattened paths are stable across runs.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member with `key`, or nullptr (also when not an object).
  [[nodiscard]] const JsonValue* Find(const std::string& key) const;
};

/// Strict recursive-descent parse of a complete JSON document
/// (trailing whitespace allowed, trailing garbage is an error). On
/// failure returns false and sets *error to "offset N: reason".
[[nodiscard]] bool ParseJson(std::string_view text, JsonValue* out,
                             std::string* error);

// ---- Flattening ---------------------------------------------------------

/// Every numeric leaf of `root` as path -> value in *out (bools count
/// as 0/1; strings and nulls are skipped). Object members join with
/// '.'; an array element's path segment is "[<identity>]" where
/// identity is every identity member the element carries (the joined
/// values of its name/label/shape/model/... string members, then its
/// replicas/batch/alpha/... numeric members as key=value), falling
/// back to the element index — so reordering results between runs
/// doesn't misalign the diff, but anonymous arrays still flatten
/// deterministically. Two elements of one array with the same identity
/// would overwrite each other's metrics, so that returns false and
/// sets *error to a message naming the path.
[[nodiscard]] bool FlattenNumeric(const JsonValue& root,
                                  std::map<std::string, double>* out,
                                  std::string* error);

// ---- Comparability ------------------------------------------------------

/// The named error that makes two runs incomparable, or "" when they can
/// be compared: their provenance.threads or provenance.build_type
/// differ. A 4-thread run against a 1-thread baseline (or a Release run
/// against a Debug one) would let a real regression read as noise, so
/// the CLI refuses such a pair with exit 2. A key missing from either
/// run cannot be checked and is not an error.
[[nodiscard]] std::string IncomparableProvenance(const JsonValue& old_run,
                                                 const JsonValue& new_run);

/// Every string member of provenance that differs between the runs
/// (git_sha, compiler, kernel_tier, ...), as "key: old -> new" with
/// "(absent)" for a missing side. Informational: they label the runs.
[[nodiscard]] std::vector<std::string> ProvenanceChanges(
    const JsonValue& old_run, const JsonValue& new_run);

// ---- Rules and diffing --------------------------------------------------

enum class Direction {
  kHigherBetter,  // drop beyond threshold = regression
  kLowerBetter,   // rise beyond threshold = regression
  kExact,         // move beyond threshold either way = regression
  kIgnore,        // never gates (provenance, timestamps, configuration)
};

/// One gate rule. `pattern` is a glob over the flattened path ('*' =
/// any span, '?' = one char, case-sensitive). A metric's movement is
/// noise while |new - old| <= max(rel * |old|, abs); beyond that, the
/// bad direction is a regression. First matching rule wins; metrics no
/// rule matches are reported but never gate.
struct MetricRule {
  std::string pattern;
  Direction direction = Direction::kIgnore;
  double rel = 0.1;  ///< relative noise threshold (fraction of |old|)
  double abs = 0.0;  ///< absolute noise floor (same unit as the metric)
};

/// The built-in rule list: tight on deterministic metrics
/// (bit-identical flags and modelled times must not move at all),
/// generous on host-bound
/// wall-clock (gflops/throughput on a shared CI runner), ignore on
/// provenance. `rel_scale` multiplies every relative threshold (CI
/// passes >1 on noisy runners).
[[nodiscard]] std::vector<MetricRule> DefaultRules();

/// One compared metric.
struct MetricDelta {
  std::string path;
  double old_value = 0;
  double new_value = 0;
  double delta = 0;      // new - old
  double rel_delta = 0;  // delta / |old| (0 when old == 0)
  bool gated = false;    // a non-ignore rule matched
  Direction direction = Direction::kIgnore;
  double threshold = 0;  // effective max(rel*|old|, abs) when gated
  bool regressed = false;
};

struct DiffResult {
  std::vector<MetricDelta> deltas;          // metrics present in both
  std::vector<std::string> only_old;        // disappeared (warning)
  std::vector<std::string> only_new;        // appeared (informational)
  int regressions = 0;
};

/// Diffs two flattened runs under `rules` (first match wins),
/// scaling every relative threshold by `rel_scale`.
[[nodiscard]] DiffResult Diff(const std::map<std::string, double>& old_run,
                              const std::map<std::string, double>& new_run,
                              const std::vector<MetricRule>& rules,
                              double rel_scale = 1.0);

/// Glob match ('*' any span, '?' one char). Exposed for tests.
[[nodiscard]] bool GlobMatch(std::string_view pattern, std::string_view text);

/// Human-readable per-metric delta table (regressions flagged, then
/// gated-but-ok, then informational), plus the missing/new lists and a
/// one-line verdict.
[[nodiscard]] std::string RenderTable(const DiffResult& result);

}  // namespace benchdiff
}  // namespace shflbw
