#include "benchdiff/benchdiff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <set>
#include <sstream>

namespace shflbw {
namespace benchdiff {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ---- Parser -------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, /*depth=*/0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing garbage after document");
    return true;
  }

 private:
  bool Fail(const std::string& why) {
    if (error_) {
      std::ostringstream os;
      os << "offset " << pos_ << ": " << why;
      *error_ = os.str();
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Expect(char c) {
    if (Eof() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    if (Eof()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    if (!Expect('{')) return false;
    SkipWs();
    if (!Eof() && Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Eof()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      return Expect('}');
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    if (!Expect('[')) return false;
    SkipWs();
    if (!Eof() && Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v, depth + 1)) return false;
      out->array.push_back(std::move(v));
      SkipWs();
      if (Eof()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      return Expect(']');
    }
  }

  bool ParseString(std::string* out) {
    if (Eof() || Peek() != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (!Eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (Eof()) return Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (Eof()) return Fail("truncated \\u escape");
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // combined — bench output never emits them).
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseKeyword(JsonValue* out) {
    if (text_.substr(pos_, 4) == "true") {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    return Fail("expected true/false");
  }

  bool ParseNull(JsonValue* out) {
    if (text_.substr(pos_, 4) == "null") {
      out->type = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return Fail("expected null");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (!Eof() && Peek() == '-') ++pos_;
    while (!Eof()) {
      const char c = Peek();
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      pos_ = start;
      return Fail("malformed number");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text, error).ParseDocument(out);
}

// ---- Flattening ---------------------------------------------------------

namespace {

/// Identity of an array element: bench result rows carry some of these
/// string members; their joined values make a path segment that is
/// stable under reordering. Joined in this order.
constexpr const char* kIdentityKeys[] = {"name",  "label",    "shape",
                                         "model", "scenario", "format",
                                         "kind"};
/// Numeric identity members, appended as key=value (serving sweeps are
/// keyed by configuration, hotpath rows by shape and alpha).
constexpr const char* kNumericIdentityKeys[] = {"replicas", "max_batch",
                                                "batch",    "qps",
                                                "level",    "alpha"};

std::string ElementIdentity(const JsonValue& element, std::size_t index) {
  if (element.type == JsonValue::Type::kObject) {
    std::string id;
    for (const char* key : kIdentityKeys) {
      const JsonValue* v = element.Find(key);
      if (v != nullptr && v->type == JsonValue::Type::kString &&
          !v->str.empty()) {
        if (!id.empty()) id += ':';
        id += v->str;
      }
    }
    for (const char* key : kNumericIdentityKeys) {
      const JsonValue* v = element.Find(key);
      if (v != nullptr && v->type == JsonValue::Type::kNumber) {
        if (!id.empty()) id += ',';
        std::ostringstream os;
        os << key << '=' << v->number;
        id += os.str();
      }
    }
    if (!id.empty()) return id;
  }
  return std::to_string(index);
}

bool FlattenInto(const JsonValue& v, const std::string& path,
                 std::map<std::string, double>* out, std::string* error) {
  switch (v.type) {
    case JsonValue::Type::kNumber:
      (*out)[path] = v.number;
      break;
    case JsonValue::Type::kBool:
      (*out)[path] = v.boolean ? 1.0 : 0.0;
      break;
    case JsonValue::Type::kObject:
      for (const auto& [key, member] : v.object) {
        if (!FlattenInto(member, path.empty() ? key : path + '.' + key, out,
                         error)) {
          return false;
        }
      }
      break;
    case JsonValue::Type::kArray: {
      std::set<std::string> seen;
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        const std::string element =
            path + '[' + ElementIdentity(v.array[i], i) + ']';
        if (!seen.insert(element).second) {
          *error = "two elements of one array are both " + element;
          return false;
        }
        if (!FlattenInto(v.array[i], element, out, error)) return false;
      }
      break;
    }
    case JsonValue::Type::kString:
    case JsonValue::Type::kNull:
      break;  // non-numeric leaves never gate
  }
  return true;
}

}  // namespace

bool FlattenNumeric(const JsonValue& root, std::map<std::string, double>* out,
                    std::string* error) {
  out->clear();
  return FlattenInto(root, "", out, error);
}

// ---- Comparability ------------------------------------------------------

namespace {

/// The provenance member `key` of a run, or nullptr.
const JsonValue* ProvenanceMember(const JsonValue& run,
                                  const std::string& key) {
  const JsonValue* provenance = run.Find("provenance");
  return provenance != nullptr ? provenance->Find(key) : nullptr;
}

std::string Describe(const JsonValue& v) {
  if (v.type == JsonValue::Type::kString) return v.str;
  std::ostringstream os;
  os << v.number;
  return os.str();
}

}  // namespace

std::string IncomparableProvenance(const JsonValue& old_run,
                                   const JsonValue& new_run) {
  for (const char* key : {"threads", "build_type"}) {
    const JsonValue* a = ProvenanceMember(old_run, key);
    const JsonValue* b = ProvenanceMember(new_run, key);
    if (a == nullptr || b == nullptr) continue;
    if (a->type != b->type || a->str != b->str || a->number != b->number) {
      return std::string("provenance.") + key + " differs: " + Describe(*a) +
             " vs " + Describe(*b);
    }
  }
  return "";
}

std::vector<std::string> ProvenanceChanges(const JsonValue& old_run,
                                           const JsonValue& new_run) {
  // String keys of either provenance block, old run's order first.
  std::vector<std::string> keys;
  for (const JsonValue* run : {&old_run, &new_run}) {
    const JsonValue* provenance = run->Find("provenance");
    if (provenance == nullptr) continue;
    for (const auto& [key, value] : provenance->object) {
      if (value.type == JsonValue::Type::kString &&
          std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
  }
  const auto text = [](const JsonValue* v) {
    return v != nullptr && v->type == JsonValue::Type::kString
               ? v->str
               : std::string("(absent)");
  };
  std::vector<std::string> changes;
  for (const std::string& key : keys) {
    const std::string old_text = text(ProvenanceMember(old_run, key));
    const std::string new_text = text(ProvenanceMember(new_run, key));
    if (old_text != new_text) {
      changes.push_back(key + ": " + old_text + " -> " + new_text);
    }
  }
  return changes;
}

// ---- Rules --------------------------------------------------------------

bool GlobMatch(std::string_view pattern, std::string_view text) {
  // Iterative glob with single-star backtracking: O(p * t) worst case,
  // fine at these sizes.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<MetricRule> DefaultRules() {
  // First match wins. Tight where the repo promises determinism, loose
  // where the number is a shared-runner wall-clock, ignore where the
  // value describes the run rather than measuring it.
  return {
      // Run descriptors: who built it, how it was configured.
      {"*provenance*", Direction::kIgnore, 0, 0},
      {"*.config.*", Direction::kIgnore, 0, 0},
      {"*threads*", Direction::kIgnore, 0, 0},
      {"*capacity*", Direction::kIgnore, 0, 0},
      {"*seed*", Direction::kIgnore, 0, 0},
      // Determinism flags are bools: any flip to 0 is a hard failure.
      {"*bit_identical*", Direction::kHigherBetter, 0, 0},
      {"*deterministic*", Direction::kHigherBetter, 0, 0},
      // Quality metrics are deterministic (fixed seeds, fixed plans):
      // retained ratios must not sink, error norms must not grow, with
      // a hair of absolute slack for float summation-order noise.
      {"*retained*", Direction::kHigherBetter, 0, 1e-9},
      {"*rel_err*", Direction::kLowerBetter, 0, 1e-9},
      {"*cosine*", Direction::kHigherBetter, 0, 1e-9},
      // Modelled times and speedups are pure functions of the plan and
      // the cost model: any move either way means the planner or the
      // model changed, so regenerate the baseline with that change.
      {"*modeled*", Direction::kExact, 0, 0},
      {"*speedup*", Direction::kHigherBetter, 0.25, 0},
      // Host-bound wall clock: generous bands for shared CI runners.
      {"*gflops*", Direction::kHigherBetter, 0.40, 0},
      {"*throughput*", Direction::kHigherBetter, 0.35, 0},
      {"*_qps*", Direction::kHigherBetter, 0.35, 0},
      {"*p99*", Direction::kLowerBetter, 1.00, 1e-3},
      {"*p50*", Direction::kLowerBetter, 1.00, 1e-3},
      {"*_ms*", Direction::kLowerBetter, 1.00, 1e-3},
      {"*seconds*", Direction::kLowerBetter, 1.00, 1e-3},
      // Everything else (counts, levels, curve shapes) stays
      // informational until a rule claims it.
  };
}

// ---- Diff ---------------------------------------------------------------

DiffResult Diff(const std::map<std::string, double>& old_run,
                const std::map<std::string, double>& new_run,
                const std::vector<MetricRule>& rules, double rel_scale) {
  DiffResult result;
  for (const auto& [path, old_value] : old_run) {
    const auto it = new_run.find(path);
    if (it == new_run.end()) {
      result.only_old.push_back(path);
      continue;
    }
    MetricDelta d;
    d.path = path;
    d.old_value = old_value;
    d.new_value = it->second;
    d.delta = d.new_value - d.old_value;
    d.rel_delta = old_value != 0 ? d.delta / std::fabs(old_value) : 0;
    for (const MetricRule& rule : rules) {
      if (!GlobMatch(rule.pattern, path)) continue;
      if (rule.direction != Direction::kIgnore) {
        d.gated = true;
        d.direction = rule.direction;
        d.threshold = std::max(rule.rel * rel_scale * std::fabs(old_value),
                               rule.abs);
        const double bad =
            rule.direction == Direction::kHigherBetter  ? -d.delta
            : rule.direction == Direction::kLowerBetter ? d.delta
                                                        : std::fabs(d.delta);
        d.regressed = bad > d.threshold;
      }
      break;  // first match wins, ignore included
    }
    if (d.regressed) ++result.regressions;
    result.deltas.push_back(std::move(d));
  }
  for (const auto& [path, value] : new_run) {
    (void)value;
    if (old_run.find(path) == old_run.end()) result.only_new.push_back(path);
  }
  return result;
}

std::string RenderTable(const DiffResult& result) {
  std::ostringstream os;
  os << std::setprecision(6);
  auto emit = [&os](const MetricDelta& d, const char* tag) {
    os << "  " << tag << ' ' << d.path << ": " << d.old_value << " -> "
       << d.new_value << "  (delta " << std::showpos << d.delta
       << std::noshowpos;
    if (d.old_value != 0) {
      os << ", " << std::showpos << 100.0 * d.rel_delta << std::noshowpos
         << "%";
    }
    if (d.gated) os << ", threshold " << d.threshold;
    os << ")\n";
  };
  bool any = false;
  for (const MetricDelta& d : result.deltas) {
    if (!d.regressed) continue;
    if (!any) os << "REGRESSIONS:\n";
    any = true;
    emit(d, "FAIL");
  }
  os << "gated metrics:\n";
  for (const MetricDelta& d : result.deltas) {
    if (d.gated && !d.regressed) emit(d, "ok  ");
  }
  os << "informational (no rule):\n";
  for (const MetricDelta& d : result.deltas) {
    if (!d.gated) emit(d, "info");
  }
  if (!result.only_old.empty()) {
    os << "missing from new run (WARNING):\n";
    for (const std::string& p : result.only_old) os << "  " << p << "\n";
  }
  if (!result.only_new.empty()) {
    os << "new metrics (informational):\n";
    for (const std::string& p : result.only_new) os << "  " << p << "\n";
  }
  os << (result.regressions > 0 ? "verdict: REGRESSED (" : "verdict: ok (")
     << result.regressions << " regression(s), " << result.deltas.size()
     << " compared)\n";
  return os.str();
}

}  // namespace benchdiff
}  // namespace shflbw
