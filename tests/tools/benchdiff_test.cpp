// benchdiff unit contract: the strict JSON parser accepts exactly what
// bench/ emits and rejects garbage with a located error, flattening
// produces stable identity-keyed paths (so reordered result arrays
// still line up and rows that differ only in alpha stay apart) and
// refuses two rows with one identity, glob matching and
// first-match-wins rule resolution behave, a self-diff is always
// clean, and an injected beyond-threshold throughput drop is flagged as
// a regression while equal-sized noise on an un-gated metric is not,
// and runs at different thread counts or build types are refused by
// name.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdiff/benchdiff.h"

namespace shflbw {
namespace benchdiff {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(ParseJson(text, &v, &err)) << err;
  return v;
}

std::map<std::string, double> MustFlatten(const JsonValue& v) {
  std::map<std::string, double> flat;
  std::string err;
  EXPECT_TRUE(FlattenNumeric(v, &flat, &err)) << err;
  return flat;
}

TEST(ParseJson, RoundTripsTheBenchSubset) {
  const JsonValue v = MustParse(
      "{\"bench\": \"serving\", \"pi\": 3.25, \"neg\": -1e-3,\n"
      " \"flag\": true, \"off\": false, \"nothing\": null,\n"
      " \"list\": [1, 2.5, \"s\"], \"nested\": {\"k\": 0}}");
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  EXPECT_EQ(v.Find("bench")->str, "serving");
  EXPECT_DOUBLE_EQ(v.Find("pi")->number, 3.25);
  EXPECT_DOUBLE_EQ(v.Find("neg")->number, -1e-3);
  EXPECT_TRUE(v.Find("flag")->boolean);
  EXPECT_FALSE(v.Find("off")->boolean);
  EXPECT_EQ(v.Find("nothing")->type, JsonValue::Type::kNull);
  ASSERT_EQ(v.Find("list")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("nested")->Find("k")->number, 0.0);
  EXPECT_EQ(v.Find("absent"), nullptr);
}

TEST(ParseJson, DecodesStringEscapes) {
  const JsonValue v =
      MustParse("{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
  EXPECT_EQ(v.Find("s")->str, "a\"b\\c\n\tA");
}

TEST(ParseJson, RejectsMalformedInputWithALocatedError) {
  const char* bad[] = {
      "",                        // empty
      "{",                       // unterminated object
      "{\"a\": }",               // missing value
      "{\"a\": 1,}",             // trailing comma
      "[1 2]",                   // missing comma
      "{\"a\": 1} trailing",     // trailing garbage
      "{'a': 1}",                // wrong quotes
  };
  for (const char* text : bad) {
    JsonValue v;
    std::string err;
    EXPECT_FALSE(ParseJson(text, &v, &err)) << "accepted: " << text;
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
  }
}

TEST(FlattenNumeric, JoinsObjectsAndKeysArraysByIdentity) {
  const JsonValue v = MustParse(
      "{\"throughput_rps\": 100,\n"
      " \"provenance\": {\"threads\": 8},\n"
      " \"results\": [\n"
      "   {\"name\": \"enc0\", \"gflops\": 5.0},\n"
      "   {\"name\": \"dec0\", \"gflops\": 7.0}],\n"
      " \"curve\": [1, 2, 3],\n"
      " \"ok\": true, \"note\": \"skipped\"}");
  const std::map<std::string, double> flat = MustFlatten(v);
  EXPECT_DOUBLE_EQ(flat.at("throughput_rps"), 100);
  EXPECT_DOUBLE_EQ(flat.at("provenance.threads"), 8);
  EXPECT_DOUBLE_EQ(flat.at("results[enc0].gflops"), 5.0);
  EXPECT_DOUBLE_EQ(flat.at("results[dec0].gflops"), 7.0);
  EXPECT_DOUBLE_EQ(flat.at("ok"), 1.0);           // bools count 0/1
  EXPECT_EQ(flat.count("note"), 0u);              // strings skipped
  // Anonymous numeric arrays fall back to the index.
  EXPECT_DOUBLE_EQ(flat.at("curve[0]"), 1);
  EXPECT_DOUBLE_EQ(flat.at("curve[2]"), 3);
}

TEST(FlattenNumeric, IdentityKeysSurviveReordering) {
  const JsonValue a = MustParse(
      "{\"r\": [{\"name\": \"x\", \"v\": 1}, {\"name\": \"y\", \"v\": 2}]}");
  const JsonValue b = MustParse(
      "{\"r\": [{\"name\": \"y\", \"v\": 2}, {\"name\": \"x\", \"v\": 1}]}");
  EXPECT_EQ(MustFlatten(a), MustFlatten(b));
}

// BENCH_hotpath.json has two rows per shape, one per alpha: keyed by
// shape alone, the second overwrote the first.
TEST(FlattenNumeric, KeysRowsByEveryIdentityMember) {
  const JsonValue v = MustParse(
      "{\"results\": [\n"
      "   {\"shape\": \"gnmt\", \"alpha\": 0.1, \"serial_ms\": 3.2},\n"
      "   {\"shape\": \"gnmt\", \"alpha\": 0.3, \"serial_ms\": 5.1}]}");
  const std::map<std::string, double> flat = MustFlatten(v);
  EXPECT_DOUBLE_EQ(flat.at("results[gnmt,alpha=0.1].serial_ms"), 3.2);
  EXPECT_DOUBLE_EQ(flat.at("results[gnmt,alpha=0.3].serial_ms"), 5.1);
  EXPECT_EQ(flat.size(), 4u);  // alpha and serial_ms of each row
}

TEST(FlattenNumeric, TwoRowsWithOneIdentityAreANamedError) {
  const JsonValue v = MustParse(
      "{\"results\": [{\"shape\": \"gnmt\", \"serial_ms\": 3.2},\n"
      "             {\"shape\": \"gnmt\", \"serial_ms\": 5.1}]}");
  std::map<std::string, double> flat;
  std::string err;
  EXPECT_FALSE(FlattenNumeric(v, &flat, &err));
  EXPECT_NE(err.find("results[gnmt]"), std::string::npos) << err;
}

TEST(GlobMatch, StarAndQuestionSemantics) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("*throughput*", "serving.throughput_rps"));
  EXPECT_TRUE(GlobMatch("results[*].gflops", "results[enc0].gflops"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "ac"));
  EXPECT_FALSE(GlobMatch("*p99*", "throughput_rps.p50"));
  EXPECT_TRUE(GlobMatch("**p50", "throughput_rps.p50"));
  EXPECT_FALSE(GlobMatch("", "x"));
  EXPECT_TRUE(GlobMatch("", ""));
}

TEST(Diff, SelfDiffIsAlwaysClean) {
  const std::map<std::string, double> run = {
      {"throughput_rps", 123.4},
      {"latency.p99_seconds", 0.02},
      {"provenance.threads", 8},
      {"quality.retained", 0.97},
  };
  const DiffResult r = Diff(run, run, DefaultRules());
  EXPECT_EQ(r.regressions, 0);
  EXPECT_TRUE(r.only_old.empty());
  EXPECT_TRUE(r.only_new.empty());
  for (const MetricDelta& d : r.deltas) EXPECT_FALSE(d.regressed);
}

TEST(Diff, FlagsThroughputCollapseButToleratesNoise) {
  std::map<std::string, double> old_run = {{"serving.throughput_rps", 100.0}};
  // Halved throughput: far beyond the 35% noise allowance.
  std::map<std::string, double> new_run = {{"serving.throughput_rps", 50.0}};
  DiffResult r = Diff(old_run, new_run, DefaultRules());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_TRUE(r.deltas[0].gated);
  EXPECT_TRUE(r.deltas[0].regressed);
  EXPECT_EQ(r.regressions, 1);
  // Render mentions the path and the verdict.
  const std::string table = RenderTable(r);
  EXPECT_NE(table.find("serving.throughput_rps"), std::string::npos);

  // A 10% dip is inside the allowance: gated but not a regression.
  new_run["serving.throughput_rps"] = 90.0;
  r = Diff(old_run, new_run, DefaultRules());
  EXPECT_EQ(r.regressions, 0);

  // Movement in the GOOD direction never regresses, however large.
  new_run["serving.throughput_rps"] = 500.0;
  r = Diff(old_run, new_run, DefaultRules());
  EXPECT_EQ(r.regressions, 0);
}

TEST(Diff, LatencyGatesInTheOppositeDirection) {
  const std::map<std::string, double> old_run = {
      {"latency.p99_seconds", 0.010}};
  // Latency tripling is a regression (lower is better, rel 1.0).
  const std::map<std::string, double> bad = {{"latency.p99_seconds", 0.031}};
  EXPECT_EQ(Diff(old_run, bad, DefaultRules()).regressions, 1);
  // Improvement is never flagged.
  const std::map<std::string, double> good = {{"latency.p99_seconds", 0.002}};
  EXPECT_EQ(Diff(old_run, good, DefaultRules()).regressions, 0);
}

TEST(Diff, FirstMatchingRuleWinsAndIgnoreNeverGates) {
  // provenance.* is ignored by the defaults even though *threads* also
  // appears later in the list; a collapse there must not gate.
  const std::map<std::string, double> old_run = {{"provenance.threads", 16}};
  const std::map<std::string, double> new_run = {{"provenance.threads", 1}};
  const DiffResult r = Diff(old_run, new_run, DefaultRules());
  EXPECT_EQ(r.regressions, 0);

  // A user rule prepended ahead of the defaults overrides them.
  std::vector<MetricRule> rules = {{"provenance.*",
                                    Direction::kLowerBetter, 0.0, 0.0}};
  for (const MetricRule& d : DefaultRules()) rules.push_back(d);
  EXPECT_EQ(Diff(old_run, new_run, rules).regressions, 0);  // 16 -> 1 fell
  EXPECT_EQ(Diff(new_run, old_run, rules).regressions, 1);  // 1 -> 16 rose
}

TEST(Diff, RefusesRunsAtDifferentThreadCounts) {
  const JsonValue one = MustParse(
      "{\"provenance\": {\"git_sha\": \"a\", \"build_type\": \"Release\","
      " \"kernel_tier\": \"baseline\", \"threads\": 1}, \"x_ms\": 1}");
  const JsonValue four = MustParse(
      "{\"provenance\": {\"git_sha\": \"a\", \"build_type\": \"Release\","
      " \"kernel_tier\": \"baseline\", \"threads\": 4}, \"x_ms\": 1}");
  EXPECT_EQ(IncomparableProvenance(one, four),
            "provenance.threads differs: 1 vs 4");
  EXPECT_EQ(IncomparableProvenance(four, one),
            "provenance.threads differs: 4 vs 1");

  const JsonValue debug = MustParse(
      "{\"provenance\": {\"git_sha\": \"a\", \"build_type\": \"Debug\","
      " \"kernel_tier\": \"baseline\", \"threads\": 1}, \"x_ms\": 1}");
  EXPECT_EQ(IncomparableProvenance(one, debug),
            "provenance.build_type differs: Release vs Debug");

  // Another sha or kernel tier labels the runs but does not block them.
  const JsonValue other = MustParse(
      "{\"provenance\": {\"git_sha\": \"b\", \"build_type\": \"Release\","
      " \"kernel_tier\": \"x86-64-v4\", \"threads\": 1}, \"x_ms\": 1}");
  EXPECT_EQ(IncomparableProvenance(one, other), "");
  EXPECT_EQ(ProvenanceChanges(one, other),
            (std::vector<std::string>{"git_sha: a -> b",
                                      "kernel_tier: baseline -> x86-64-v4"}));
  EXPECT_EQ(IncomparableProvenance(one, one), "");
  EXPECT_TRUE(ProvenanceChanges(one, one).empty());

  // A run without a key (an older baseline) cannot be checked on it.
  const JsonValue old_baseline = MustParse(
      "{\"provenance\": {\"git_sha\": \"a\", \"build_type\": \"Release\","
      " \"threads\": 1}, \"x_ms\": 1}");
  EXPECT_EQ(IncomparableProvenance(old_baseline, four),
            "provenance.threads differs: 1 vs 4");
  EXPECT_EQ(ProvenanceChanges(old_baseline, one),
            (std::vector<std::string>{"kernel_tier: (absent) -> baseline"}));
  EXPECT_EQ(IncomparableProvenance(MustParse("{\"x_ms\": 1}"), four), "");
}

TEST(Diff, BitIdenticalFlagsHaveZeroTolerance) {
  const std::map<std::string, double> old_run = {
      {"serving.bit_identical", 1.0}};
  const std::map<std::string, double> new_run = {
      {"serving.bit_identical", 0.0}};
  EXPECT_EQ(Diff(old_run, new_run, DefaultRules()).regressions, 1);
}

TEST(Diff, ModeledMetricsMustNotMoveEitherWay) {
  // A modelled time is a pure function of the plan and the cost model;
  // the exact rule claims it ahead of the loose *_ms* and *speedup*
  // bands, in both directions.
  const std::map<std::string, double> old_run = {
      {"models[transformer].whole_model.modeled_speedup", 1.21},
      {"models[transformer].speed_only.modeled_ms", 2.5}};
  std::map<std::string, double> up = old_run;
  up["models[transformer].whole_model.modeled_speedup"] = 1.22;
  EXPECT_EQ(Diff(old_run, up, DefaultRules()).regressions, 1);
  std::map<std::string, double> down = old_run;
  down["models[transformer].speed_only.modeled_ms"] = 2.4;
  const DiffResult r = Diff(old_run, down, DefaultRules());
  EXPECT_EQ(r.regressions, 1);
  for (const MetricDelta& d : r.deltas) {
    EXPECT_TRUE(d.gated) << d.path;
    EXPECT_EQ(d.direction, Direction::kExact) << d.path;
  }
  // Unchanged passes, at any --rel-scale.
  EXPECT_EQ(Diff(old_run, old_run, DefaultRules(), 2.0).regressions, 0);
}

TEST(Diff, DisappearedMetricsWarnAndNewOnesInform) {
  const std::map<std::string, double> old_run = {{"a", 1}, {"b", 2}};
  const std::map<std::string, double> new_run = {{"b", 2}, {"c", 3}};
  const DiffResult r = Diff(old_run, new_run, DefaultRules());
  ASSERT_EQ(r.only_old.size(), 1u);
  EXPECT_EQ(r.only_old[0], "a");
  ASSERT_EQ(r.only_new.size(), 1u);
  EXPECT_EQ(r.only_new[0], "c");
  EXPECT_EQ(r.regressions, 0);  // absence is a warning, not a gate
}

TEST(Diff, RelScaleLoosensEveryRelativeThreshold) {
  const std::map<std::string, double> old_run = {
      {"serving.throughput_rps", 100.0}};
  const std::map<std::string, double> new_run = {
      {"serving.throughput_rps", 60.0}};  // -40%: beyond rel 0.35
  EXPECT_EQ(Diff(old_run, new_run, DefaultRules(), 1.0).regressions, 1);
  EXPECT_EQ(Diff(old_run, new_run, DefaultRules(), 2.0).regressions, 0);
}

}  // namespace
}  // namespace benchdiff
}  // namespace shflbw
