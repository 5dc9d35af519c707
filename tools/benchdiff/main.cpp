// CLI driver for benchdiff (see benchdiff.h for the diff model).
//
//   benchdiff [--rule PATTERN,DIR,REL[,ABS]]... [--rel-scale X]
//             OLD.json NEW.json
//
// Flattens both BENCH_*.json documents to path -> number maps, diffs
// them under the rule list (any --rule flags are prepended to the
// built-in defaults, so they take precedence), prints the provenance
// strings that differ (git_sha, kernel_tier, ...) and the per-metric
// delta table, and exits 0 when no gated metric regressed, 1 when one
// did, 2 on usage / IO / parse errors, on two array elements with the
// same identity, and when the two runs are not comparable
// (provenance.threads or provenance.build_type differ). DIR is one of higher | lower |
// exact (either direction regresses) | ignore; REL is the relative noise threshold (fraction of |old|) and
// ABS the absolute floor. --rel-scale multiplies every relative
// threshold (CI passes >1 on noisy shared runners).

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchdiff/benchdiff.h"

namespace {

using shflbw::benchdiff::Direction;
using shflbw::benchdiff::MetricRule;

int Usage() {
  std::cerr << "usage: benchdiff [--rule PATTERN,DIR,REL[,ABS]]... "
               "[--rel-scale X] OLD.json NEW.json\n"
            << "  DIR: higher | lower | exact | ignore\n";
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  *out = buf.str();
  return true;
}

/// "PATTERN,DIR,REL[,ABS]" -> rule; false on malformed input.
bool ParseRuleFlag(const std::string& spec, MetricRule* out) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : spec) {
    if (c == ',') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  if (parts.size() < 3 || parts.size() > 4 || parts[0].empty()) return false;
  out->pattern = parts[0];
  if (parts[1] == "higher") {
    out->direction = Direction::kHigherBetter;
  } else if (parts[1] == "lower") {
    out->direction = Direction::kLowerBetter;
  } else if (parts[1] == "exact") {
    out->direction = Direction::kExact;
  } else if (parts[1] == "ignore") {
    out->direction = Direction::kIgnore;
  } else {
    return false;
  }
  try {
    out->rel = std::stod(parts[2]);
    out->abs = parts.size() == 4 ? std::stod(parts[3]) : 0.0;
  } catch (...) {
    return false;
  }
  return out->rel >= 0 && out->abs >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<MetricRule> rules;
  double rel_scale = 1.0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rule") {
      if (i + 1 >= argc) return Usage();
      MetricRule rule;
      if (!ParseRuleFlag(argv[++i], &rule)) {
        std::cerr << "benchdiff: bad --rule spec: " << argv[i] << "\n";
        return 2;
      }
      rules.push_back(rule);
    } else if (arg == "--rel-scale") {
      if (i + 1 >= argc) return Usage();
      try {
        rel_scale = std::stod(argv[++i]);
      } catch (...) {
        return Usage();
      }
      if (rel_scale <= 0) return Usage();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return Usage();

  const std::vector<MetricRule> defaults = shflbw::benchdiff::DefaultRules();
  rules.insert(rules.end(), defaults.begin(), defaults.end());

  shflbw::benchdiff::JsonValue docs[2];
  std::map<std::string, double> flat[2];
  for (int i = 0; i < 2; ++i) {
    std::string text;
    if (!ReadFile(paths[static_cast<std::size_t>(i)], &text)) {
      std::cerr << "benchdiff: cannot read "
                << paths[static_cast<std::size_t>(i)] << "\n";
      return 2;
    }
    std::string error;
    if (!shflbw::benchdiff::ParseJson(text, &docs[i], &error)) {
      std::cerr << "benchdiff: " << paths[static_cast<std::size_t>(i)]
                << ": " << error << "\n";
      return 2;
    }
    if (!shflbw::benchdiff::FlattenNumeric(docs[i], &flat[i], &error)) {
      std::cerr << "benchdiff: " << paths[static_cast<std::size_t>(i)]
                << ": " << error << "\n";
      return 2;
    }
  }
  const std::string incomparable =
      shflbw::benchdiff::IncomparableProvenance(docs[0], docs[1]);
  if (!incomparable.empty()) {
    std::cerr << "benchdiff: refusing to compare " << paths[0] << " with "
              << paths[1] << ": " << incomparable << "\n";
    return 2;
  }

  const shflbw::benchdiff::DiffResult result =
      shflbw::benchdiff::Diff(flat[0], flat[1], rules, rel_scale);
  std::cout << "benchdiff: " << paths[0] << " -> " << paths[1] << "\n";
  const std::vector<std::string> changes =
      shflbw::benchdiff::ProvenanceChanges(docs[0], docs[1]);
  if (!changes.empty()) {
    std::cout << "provenance (informational):\n";
    for (const std::string& c : changes) std::cout << "  " << c << "\n";
  }
  std::cout << shflbw::benchdiff::RenderTable(result);
  return result.regressions > 0 ? 1 : 0;
}
