// statusz + watchdog integration: the report structure renders
// consistently as text and JSON (the JSON side validated by the strict
// benchdiff parser — the same consumer the CI regression gate uses),
// BatchServer::Status() exposes every operational section, the plan
// table finds every layer's drift gauges, DumpStatus writes the
// text/JSON pair, and — the acceptance path — a replica
// deterministically wedged via fault-injected launch delay trips the
// watchdog within its budget and leaves a postmortem on disk naming
// the stalled replica.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdiff/benchdiff.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "kernels/spmm_vector_wise.h"
#include "obs/statusz.h"
#include "runtime/server.h"

namespace shflbw {
namespace runtime {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

EngineOptions SmallOptions() {
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  return opts;
}

ModelDesc SmallTransformer() {
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  return ModelDesc::Transformer(cfg);
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Files this test writes; removed even on assertion failure.
class TempFiles {
 public:
  std::string Track(const std::string& path) {
    paths_.push_back(path);
    return path;
  }
  ~TempFiles() {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

 private:
  std::vector<std::string> paths_;
};

TEST(StatusReport, TextAndJsonRenderTheSameContent) {
  obs::StatusReport report;
  report.title = "unit \"quoted\" title";
  obs::StatusSection& s = report.AddSection("alpha");
  s.AddText("mode", "serving\nline2");
  s.AddNumber("depth", 3.5);
  obs::StatusTable& t = s.AddTable("rows", {"name", "value"});
  t.rows.push_back({"r0", "1"});
  t.rows.push_back({"r1", "2"});

  const std::string text = report.RenderText();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("depth"), std::string::npos);
  EXPECT_NE(text.find("r1"), std::string::npos);

  std::string err;
  benchdiff::JsonValue root;
  ASSERT_TRUE(benchdiff::ParseJson(report.RenderJson(), &root, &err)) << err;
  const benchdiff::JsonValue* title = root.Find("title");
  ASSERT_NE(title, nullptr);
  EXPECT_EQ(title->str, "unit \"quoted\" title");
  const benchdiff::JsonValue* sections = root.Find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_EQ(sections->type, benchdiff::JsonValue::Type::kArray);
  ASSERT_EQ(sections->array.size(), 1u);
}

TEST(BatchServer, StatusExposesEveryOperationalSection) {
  ThreadGuard guard;
  SetParallelThreads(2);
  ServerOptions opts;
  opts.replicas = 2;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  for (int i = 0; i < 4; ++i) (void)server.Submit(Request{}).get();

  const obs::StatusReport report = server.Status();
  std::set<std::string> names;
  for (const obs::StatusSection& s : report.sections) names.insert(s.name);
  for (const char* want :
       {"build", "server", "ladder", "replicas", "weight_cache",
        "worker_pool", "watchdog", "flight_recorder", "plan"}) {
    EXPECT_EQ(names.count(want), 1u) << "missing section " << want;
  }
  // The build section names the VW-family kernel tier this host runs.
  bool tier_reported = false;
  for (const obs::StatusSection& s : report.sections) {
    if (s.name != "build") continue;
    for (const obs::StatusItem& item : s.items) {
      if (item.key == "kernel_tier") {
        EXPECT_EQ(item.text, KernelTierName(ActiveKernelTier()));
        tier_reported = true;
      }
    }
  }
  EXPECT_TRUE(tier_reported);

  // The two replica scheduler threads appear (and stay registered for
  // the server's lifetime) in the replicas table.
  const std::string text = server.StatusText();
  EXPECT_NE(text.find("replica0"), std::string::npos);
  EXPECT_NE(text.find("replica1"), std::string::npos);

  std::string err;
  benchdiff::JsonValue root;
  ASSERT_TRUE(benchdiff::ParseJson(server.StatusJson(), &root, &err)) << err;
}

// The plan table finds every layer's measured seconds and drift after
// a served request, whatever the digits of its density: the engine
// names the gauges and statusz looks them up with one label function,
// so a density of 1/3 resolves like 0.25 does.
TEST(BatchServer, PlanTableShowsDriftAtADensityOfOneThird) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.engine.planner.density = 1.0 / 3;
  BatchServer server(SmallTransformer(), opts);
  (void)server.Submit(Request{}).get();
  server.Drain();

  const obs::StatusTable* layers = nullptr;
  const obs::StatusReport report = server.Status();
  for (const obs::StatusSection& s : report.sections) {
    for (const obs::StatusTable& t : s.tables) {
      if (s.name == "plan" && t.name == "layers") layers = &t;
    }
  }
  ASSERT_NE(layers, nullptr);
  const auto column = [&](const std::string& name) {
    const auto it =
        std::find(layers->columns.begin(), layers->columns.end(), name);
    return static_cast<std::size_t>(it - layers->columns.begin());
  };
  const std::size_t density = column("density");
  const std::size_t measured = column("measured_s");
  const std::size_t drift = column("drift");
  for (const std::size_t c : {density, measured, drift}) {
    ASSERT_LT(c, layers->columns.size());
  }
  ASSERT_FALSE(layers->rows.empty());
  bool one_third = false;
  for (const std::vector<std::string>& row : layers->rows) {
    one_third = one_third || row[density] == "0.333333";
    EXPECT_NE(row[measured], "-") << row[0];
    EXPECT_NE(row[drift], "-") << row[0];
  }
  EXPECT_TRUE(one_third) << "no layer was planned at density 1/3";
}

TEST(BatchServer, DumpStatusWritesTextAndJson) {
  ThreadGuard guard;
  SetParallelThreads(1);
  TempFiles tmp;
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  (void)server.Submit(Request{}).get();

  const std::string base = "statusz_test_dump";
  ASSERT_TRUE(server.DumpStatus(base));
  const std::string text = ReadWholeFile(tmp.Track(base + ".txt"));
  const std::string json = ReadWholeFile(tmp.Track(base + ".json"));
  EXPECT_NE(text.find("replica0"), std::string::npos);
  std::string err;
  benchdiff::JsonValue root;
  ASSERT_TRUE(benchdiff::ParseJson(json, &root, &err)) << err;

  ASSERT_TRUE(
      server.DumpFlightRecorder(tmp.Track("statusz_test_flight.json")));
  benchdiff::JsonValue flight;
  ASSERT_TRUE(benchdiff::ParseJson(ReadWholeFile("statusz_test_flight.json"),
                                   &flight, &err))
      << err;
  ASSERT_NE(flight.Find("events"), nullptr);
}

// The ISSUE acceptance path: a replica wedged mid-launch (fault
// injector delays every kernel launch well past the stall budget) is
// detected by the watchdog within its budget, the stall is counted,
// and the postmortem statusz + flight dumps land on disk naming the
// stalled replica.
TEST(BatchServer, WedgedReplicaTripsWatchdogAndDumpsPostmortem) {
  ThreadGuard guard;
  SetParallelThreads(1);
  TempFiles tmp;

  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  FaultInjectorOptions fault;
  fault.launch_delay_rate = 1.0;   // every launch wedges...
  fault.launch_delay_seconds = 0.4;  // ...for >> the stall budget
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fault);
  opts.watchdog.enabled = true;
  opts.watchdog.stall_budget_seconds = 0.05;
  opts.watchdog.poll_interval_seconds = 0.01;
  opts.watchdog.dump_path = "statusz_test_wedge";
  tmp.Track("statusz_test_wedge_statusz.txt");
  tmp.Track("statusz_test_wedge_statusz.json");
  tmp.Track("statusz_test_wedge_flight.json");

  BatchServer server(SmallTransformer(), opts);
  const double begin = NowSeconds();
  (void)server.Submit(Request{}).get();  // wedges inside the launch
  server.Drain();

  const obs::Watchdog* dog = server.watchdog();
  ASSERT_NE(dog, nullptr);
  EXPECT_GE(dog->stalls(), 1u);
  // Detection happened while the 0.4 s launch was still wedged — i.e.
  // within the configured budget + poll jitter, not after the fact.
  EXPECT_LT(NowSeconds() - begin, 10.0);

  const std::string text =
      ReadWholeFile("statusz_test_wedge_statusz.txt");
  ASSERT_FALSE(text.empty()) << "stall postmortem was not written";
  EXPECT_NE(text.find("replica0"), std::string::npos);

  std::string err;
  benchdiff::JsonValue root;
  ASSERT_TRUE(benchdiff::ParseJson(
      ReadWholeFile("statusz_test_wedge_statusz.json"), &root, &err))
      << err;

  const std::string flight =
      ReadWholeFile("statusz_test_wedge_flight.json");
  ASSERT_FALSE(flight.empty());
  EXPECT_NE(flight.find("\"stall\""), std::string::npos);
  EXPECT_NE(flight.find("replica0"), std::string::npos);

  // The server recovered: the wedged launch completed and stats add up.
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
