// Tracing contract: the span ring is built on the first enable (also
// while other threads record), records whole POD events and drops
// newest when full, every span a serving run records is well-formed
// (begin <= end, request-scoped spans carry a real request id), the
// Chrome trace-event dump is syntactically valid JSON with the
// process-metadata events Perfetto keys on, and the three interesting
// request fates — shed, retried, degraded — each leave their expected
// span sequence, with fused batches sharing one set of kernel spans.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "runtime/server.h"

namespace shflbw {
namespace obs {
namespace {

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder rec(8);
  TraceEvent ev;
  rec.Record(ev);
  EXPECT_EQ(rec.size(), 0u);
}

// The ring is allocated on the first enable: a recorder that was never
// enabled has none, yet reports its configured capacity and reads,
// clears and dumps as empty.
TEST(TraceRecorder, NeverEnabledIsEmptyAtItsCapacity) {
  TraceRecorder rec(8);
  rec.Record(TraceEvent{});
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_TRUE(rec.Snapshot().empty());
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  EXPECT_EQ(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceRecorder, LabelsTruncateSafely) {
  TraceEvent ev;
  ev.SetLabel(std::string(200, 'x'));
  ev.SetLabel2(std::string(200, 'y'));
  EXPECT_EQ(std::string(ev.label).size(), sizeof(ev.label) - 1);
  EXPECT_EQ(std::string(ev.label2).size(), sizeof(ev.label2) - 1);
}

using runtime::BatchServer;
using runtime::EngineOptions;
using runtime::FaultInjector;
using runtime::FaultInjectorOptions;
using runtime::ModelDesc;
using runtime::Request;
using runtime::Response;
using runtime::ResponseStatus;
using runtime::ServerOptions;
using shflbw::TransformerConfig;  // model-level config lives one namespace up

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

/// Minimal recursive-descent JSON syntax validator — enough to prove
/// the trace dump is loadable by a real parser without shipping one.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // escape consumes one extra char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Every span must be a closed interval, and request-scoped spans must
/// point at a request that exists (id < submitted).
void ExpectWellFormed(const std::vector<TraceEvent>& events,
                      std::uint64_t submitted) {
  for (const TraceEvent& ev : events) {
    EXPECT_LE(ev.begin_seconds, ev.end_seconds)
        << SpanKindName(ev.kind) << " span runs backwards";
    switch (ev.kind) {
      case SpanKind::kQueue:
      case SpanKind::kRun:
      case SpanKind::kShed:
        ASSERT_NE(ev.request_id, kNoId) << SpanKindName(ev.kind);
        EXPECT_LT(ev.request_id, submitted)
            << SpanKindName(ev.kind) << " parented to a request that was "
            << "never submitted";
        break;
      case SpanKind::kAdmission:
        // Rejected submissions legitimately carry no id.
        if (ev.request_id != kNoId) {
          EXPECT_LT(ev.request_id, submitted);
        }
        break;
      case SpanKind::kCoalesce:
      case SpanKind::kKernel:
      case SpanKind::kRetry:
        EXPECT_GE(ev.replica, 0) << SpanKindName(ev.kind);
        break;
    }
  }
}

std::vector<TraceEvent> OfKind(const std::vector<TraceEvent>& events,
                               SpanKind kind) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events) {
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

TEST(TraceRecorder, DropsNewestWhenFullAndCounts) {
  TraceRecorder rec(4);
  rec.SetEnabled(true);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.kind = SpanKind::kQueue;
    ev.request_id = static_cast<std::uint64_t>(i);
    ev.begin_seconds = i;
    ev.end_seconds = i + 1;
    rec.Record(ev);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Drop-NEWEST: the survivors are the first four events.
  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].request_id,
              static_cast<std::uint64_t>(i));
  }
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

// The first enable publishes the ring while other threads record and
// read: a record sees no ring (and records nothing) or the whole ring,
// never a half-built one. CI runs this under TSan.
TEST(TraceRecorder, EnablingWhileThreadsRecord) {
  TraceRecorder rec(1 << 10);
  constexpr int kRecorders = 4;
  std::atomic<int> running{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&, t] {
      running.fetch_add(1);
      for (std::uint64_t i = 0; !stop.load(); ++i) {
        TraceEvent ev;
        ev.kind = SpanKind::kQueue;
        ev.replica = t;
        ev.request_id = i;
        ev.begin_seconds = static_cast<double>(i);
        ev.end_seconds = static_cast<double>(i) + 1;
        rec.Record(ev);
      }
    });
  }
  while (running.load() < kRecorders) std::this_thread::yield();
  // Two racing first enables: one ring is published, the other freed.
  std::thread a([&] { rec.SetEnabled(true); });
  std::thread b([&] { rec.SetEnabled(true); });
  a.join();
  b.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rec.dropped() == 0 && std::chrono::steady_clock::now() < deadline) {
    (void)rec.size();
  }
  stop.store(true);
  for (std::thread& t : recorders) t.join();

  EXPECT_EQ(rec.capacity(), 1u << 10);
  EXPECT_EQ(rec.size(), rec.capacity());
  EXPECT_GT(rec.dropped(), 0u);
  for (const TraceEvent& ev : rec.Snapshot()) {
    EXPECT_EQ(ev.begin_seconds, static_cast<double>(ev.request_id));
    EXPECT_EQ(ev.end_seconds, ev.begin_seconds + 1);
    EXPECT_TRUE(ev.replica >= 0 && ev.replica < kRecorders) << ev.replica;
  }
}

// A fused batch leaves K run spans sharing ONE set of kernel spans:
// exactly one kernel span per model layer, all width K, all carrying
// the same batch id as the run spans.
TEST(BatchServerTrace, FusedBatchSharesKernelSpans) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  // max_batch above the submit count: the replica always finds the
  // queue below seal size, provably opens the window, and seals on its
  // expiry — so the coalesce span is deterministic, not a race.
  opts.max_batch = 8;
  opts.coalesce_window_seconds = 0.05;
  opts.engine = SmallOptions();
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  server.telemetry().trace().Clear();  // drop construction-time spans

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(server.Submit(Request{}));
  server.Drain();
  for (auto& f : futs) EXPECT_EQ(f.get().batch_width, 4);

  const std::vector<TraceEvent> events = server.telemetry().trace().Snapshot();
  ExpectWellFormed(events, server.Stats().submitted);

  const std::vector<TraceEvent> runs = OfKind(events, SpanKind::kRun);
  ASSERT_EQ(runs.size(), 4u);
  const std::uint64_t batch_id = runs.front().batch_id;
  ASSERT_NE(batch_id, kNoId);
  for (const TraceEvent& r : runs) {
    EXPECT_EQ(r.batch_id, batch_id);
    EXPECT_EQ(r.width, 4);
  }
  const std::vector<TraceEvent> kernels = OfKind(events, SpanKind::kKernel);
  const std::size_t layers = server.Plan().layers.size();
  ASSERT_EQ(kernels.size(), layers) << "one fused launch per layer, not K";
  for (const TraceEvent& k : kernels) {
    EXPECT_EQ(k.batch_id, batch_id);
    EXPECT_EQ(k.width, 4);
    EXPECT_NE(k.label[0], '\0') << "kernel span carries the layer name";
  }
  // The replica held the window open: a coalesce span precedes the run.
  EXPECT_GE(OfKind(events, SpanKind::kCoalesce).size(), 1u);
  // Queue spans end where run spans begin (the seal instant).
  const std::vector<TraceEvent> queues = OfKind(events, SpanKind::kQueue);
  ASSERT_EQ(queues.size(), 4u);
  for (const TraceEvent& q : queues) {
    EXPECT_DOUBLE_EQ(q.end_seconds, runs.front().begin_seconds);
  }
}

// A retried launch leaves retry spans (one per backoff) and a run span
// reporting the retry count; the failed attempts contribute no kernel
// spans (the fault fires before the kernel executes).
TEST(BatchServerTrace, RetriedRequestLeavesRetrySpans) {
  ThreadGuard guard;
  SetParallelThreads(1);
  FaultInjectorOptions fi;
  fi.launch_failure_rate = 1.0;
  fi.max_failures = 2;  // attempts 1 and 2 fail, attempt 3 completes
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.retry.max_retries = 3;
  opts.retry.backoff_seconds = 1e-4;
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);  // no Warmup: faults hit serving

  Response resp = server.Submit(Request{}).get();
  server.Drain();
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  ASSERT_EQ(resp.retries, 2);
  EXPECT_GT(resp.retry_seconds, 0.0);

  const std::vector<TraceEvent> events = server.telemetry().trace().Snapshot();
  ExpectWellFormed(events, server.Stats().submitted);
  const std::vector<TraceEvent> retries = OfKind(events, SpanKind::kRetry);
  ASSERT_EQ(retries.size(), 2u);
  EXPECT_EQ(retries[0].attempt, 1);
  EXPECT_EQ(retries[1].attempt, 2);
  const std::vector<TraceEvent> runs = OfKind(events, SpanKind::kRun);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().retries, 2);
  // Retry spans nest inside the run span and share its batch.
  for (const TraceEvent& r : retries) {
    EXPECT_EQ(r.batch_id, runs.front().batch_id);
    EXPECT_GE(r.begin_seconds, runs.front().begin_seconds);
    EXPECT_LE(r.end_seconds, runs.front().end_seconds);
  }
  // Only the successful attempt executed kernels.
  EXPECT_EQ(OfKind(events, SpanKind::kKernel).size(),
            server.Plan().layers.size());
}

// A deadline-shed request leaves queue + shed spans and no run span;
// its live batch-mates get run spans as usual.
TEST(BatchServerTrace, ShedRequestLeavesShedSpanAndNoRunSpan) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 4;
  opts.coalesce_window_seconds = 0.05;  // seal happens after the deadline
  opts.engine = SmallOptions();
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  server.telemetry().trace().Clear();

  Request doomed;
  doomed.deadline_seconds = 1e-6;
  std::future<Response> doomed_fut = server.Submit(doomed);
  std::future<Response> live_fut = server.Submit(Request{});
  server.Drain();
  const std::uint64_t doomed_id = doomed_fut.get().id;
  const std::uint64_t live_id = live_fut.get().id;

  const std::vector<TraceEvent> events = server.telemetry().trace().Snapshot();
  ExpectWellFormed(events, server.Stats().submitted);
  const std::vector<TraceEvent> sheds = OfKind(events, SpanKind::kShed);
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds.front().request_id, doomed_id);
  std::size_t doomed_queue_spans = 0;
  for (const TraceEvent& q : OfKind(events, SpanKind::kQueue)) {
    doomed_queue_spans += q.request_id == doomed_id;
  }
  EXPECT_EQ(doomed_queue_spans, 1u);
  const std::vector<TraceEvent> runs = OfKind(events, SpanKind::kRun);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().request_id, live_id);
}

// Under pressure with a quality ladder, degraded requests' run and
// kernel spans carry the level they were served at.
TEST(BatchServerTrace, DegradedRequestSpansCarryLevel) {
  ThreadGuard guard;
  SetParallelThreads(1);
  FaultInjectorOptions fi;
  fi.launch_delay_rate = 1.0;
  fi.launch_delay_seconds = 0.03;  // slow launches so the queue builds
  ServerOptions opts;
  opts.replicas = 1;
  opts.queue_capacity = 4;
  opts.max_batch = 1;
  opts.engine = SmallOptions();
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.degradation.ladder_floors = {0.95, 0.7};
  opts.degradation.degrade_queue_fraction = 0.5;
  opts.degradation.hysteresis_seals = 1;
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  server.telemetry().trace().Clear();

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) futs.push_back(server.Submit(Request{}));
  server.Drain();
  bool saw_degraded = false;
  for (auto& f : futs) saw_degraded = saw_degraded || f.get().plan_level > 0;
  ASSERT_TRUE(saw_degraded);

  const std::vector<TraceEvent> events = server.telemetry().trace().Snapshot();
  ExpectWellFormed(events, server.Stats().submitted);
  bool degraded_run = false, degraded_kernel = false;
  for (const TraceEvent& ev : OfKind(events, SpanKind::kRun)) {
    degraded_run = degraded_run || ev.level > 0;
  }
  for (const TraceEvent& ev : OfKind(events, SpanKind::kKernel)) {
    degraded_kernel = degraded_kernel || ev.level > 0;
  }
  EXPECT_TRUE(degraded_run);
  EXPECT_TRUE(degraded_kernel);
}

// The Chrome trace dump is valid JSON and carries the process/thread
// metadata Perfetto uses to name the tracks.
TEST(BatchServerTrace, ChromeTraceJsonParsesAndNamesTracks) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 2;
  opts.engine = SmallOptions();
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  for (int i = 0; i < 3; ++i) (void)server.Submit(Request{}).get();
  server.Drain();

  std::ostringstream os;
  server.telemetry().trace().WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"shflbw server\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// Tracing disabled (the default) must record nothing anywhere in the
// stack — the trace stays empty across a full serving run.
TEST(BatchServerTrace, DisabledByDefaultRecordsNoSpans) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  (void)server.Submit(Request{}).get();
  server.Drain();
  EXPECT_EQ(server.telemetry().trace().size(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace shflbw
