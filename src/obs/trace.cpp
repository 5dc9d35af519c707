#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/clock.h"

namespace shflbw {
namespace obs {
namespace {

void CopyLabel(char* dst, std::size_t cap, const std::string& s) {
  const std::size_t n = std::min(s.size(), cap - 1);
  std::memcpy(dst, s.data(), n);
  dst[n] = '\0';
}

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    if (*s == '\n' || *s == '\t') {
      out.push_back(' ');
      continue;
    }
    out.push_back(*s);
  }
  return out;
}

/// Spans that belong to a request's track (pid 2); the rest narrate
/// the replica scheduler thread (pid 1).
bool RequestScoped(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdmission:
    case SpanKind::kQueue:
    case SpanKind::kRun:
    case SpanKind::kShed:
      return true;
    case SpanKind::kCoalesce:
    case SpanKind::kKernel:
    case SpanKind::kRetry:
      return false;
  }
  return false;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdmission: return "admission";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kCoalesce: return "coalesce";
    case SpanKind::kKernel: return "kernel";
    case SpanKind::kRetry: return "retry";
    case SpanKind::kRun: return "run";
    case SpanKind::kShed: return "shed";
  }
  return "?";
}

void TraceEvent::SetLabel(const std::string& s) {
  CopyLabel(label, sizeof(label), s);
}

void TraceEvent::SetLabel2(const std::string& s) {
  CopyLabel(label2, sizeof(label2), s);
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1), start_seconds_(NowSeconds()) {}

TraceRecorder::~TraceRecorder() {
  delete[] slots_.load(std::memory_order_relaxed);
}

void TraceRecorder::SetEnabled(bool on) {
  if (on && slots_.load(std::memory_order_acquire) == nullptr) {
    // Racing first enables each build a ring; one publishes it (release
    // pairs with the acquire loads of Record, size and Snapshot).
    Slot* ring = new Slot[capacity_];
    Slot* expected = nullptr;
    if (!slots_.compare_exchange_strong(expected, ring,
                                        std::memory_order_acq_rel)) {
      delete[] ring;
    }
  }
  enabled_.store(on, std::memory_order_relaxed);
}

std::size_t TraceRecorder::size() const {
  const Slot* const slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return 0;
  const std::uint64_t claimed = next_.load(std::memory_order_relaxed);
  std::size_t n = 0;
  const std::size_t upto = std::min<std::uint64_t>(claimed, capacity_);
  for (std::size_t i = 0; i < upto; ++i) {
    if (slots[i].ready.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> events;
  const Slot* const slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return events;
  const std::uint64_t claimed = next_.load(std::memory_order_relaxed);
  const std::size_t upto = std::min<std::uint64_t>(claimed, capacity_);
  events.reserve(upto);
  for (std::size_t i = 0; i < upto; ++i) {
    // Acquire pairs with Record's release publish: a ready slot's
    // payload is fully written. A claimed-but-unpublished slot (writer
    // mid-copy) is simply skipped.
    if (slots[i].ready.load(std::memory_order_acquire)) {
      events.push_back(slots[i].ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.begin_seconds < b.begin_seconds;
            });
  return events;
}

void TraceRecorder::Clear() {
  Slot* const slots = slots_.load(std::memory_order_acquire);
  for (std::size_t i = 0; slots != nullptr && i < capacity_; ++i) {
    slots[i].ready.store(false, std::memory_order_relaxed);
    slots[i].ev = TraceEvent{};
  }
  dropped_.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_release);
  start_seconds_ = NowSeconds();
}

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  const std::vector<TraceEvent> events = Snapshot();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"shflbw server\"}},\n";
  os << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
        "\"args\":{\"name\":\"requests\"}}";
  // One thread_name per replica track seen in the events.
  std::vector<std::int32_t> replicas;
  for (const TraceEvent& ev : events) {
    if (!RequestScoped(ev.kind) && ev.replica >= 0 &&
        std::find(replicas.begin(), replicas.end(), ev.replica) ==
            replicas.end()) {
      replicas.push_back(ev.replica);
    }
  }
  std::sort(replicas.begin(), replicas.end());
  for (std::int32_t r : replicas) {
    os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << (r + 1)
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"replica " << r
       << "\"}}";
  }

  os.precision(3);
  os << std::fixed;
  for (const TraceEvent& ev : events) {
    const double ts = (ev.begin_seconds - start_seconds_) * 1e6;
    const double dur =
        std::max(0.0, (ev.end_seconds - ev.begin_seconds) * 1e6);
    const bool req = RequestScoped(ev.kind);
    const int pid = req ? 2 : 1;
    // Request tracks key on the id (+1 keeps tid 0 free); replica
    // tracks on the scheduler thread's replica index.
    const std::uint64_t tid =
        req ? (ev.request_id == kNoId ? 0 : ev.request_id + 1)
            : static_cast<std::uint64_t>(ev.replica + 1);
    const char* name = ev.kind == SpanKind::kKernel && ev.label[0] != '\0'
                           ? ev.label
                           : SpanKindName(ev.kind);
    os << ",\n{\"name\":\"" << JsonEscape(name) << "\",\"cat\":\""
       << SpanKindName(ev.kind) << "\",\"ph\":\"X\",\"ts\":" << ts
       << ",\"dur\":" << dur << ",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"args\":{";
    bool first = true;
    const auto arg = [&](const char* key, auto value) {
      if (!first) os << ",";
      first = false;
      os << "\"" << key << "\":" << value;
    };
    if (ev.request_id != kNoId) arg("request", ev.request_id);
    if (ev.batch_id != kNoId) arg("batch", ev.batch_id);
    if (ev.replica >= 0) arg("replica", ev.replica);
    if (ev.level >= 0) arg("level", ev.level);
    if (ev.layer >= 0) arg("layer", ev.layer);
    if (ev.width > 0) arg("width", ev.width);
    if (ev.attempt >= 0) arg("attempt", ev.attempt);
    if (ev.kind == SpanKind::kRun) arg("retries", ev.retries);
    if (ev.kind == SpanKind::kAdmission) arg("verdict", ev.detail);
    if (ev.label2[0] != '\0') {
      std::string quoted = "\"";
      quoted += JsonEscape(ev.label2);
      quoted += "\"";
      arg("format", quoted);
    }
    os << "}}";
  }
  os << "\n]}\n";
}

bool TraceRecorder::DumpChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  WriteChromeTrace(f);
  return static_cast<bool>(f);
}

}  // namespace obs
}  // namespace shflbw
