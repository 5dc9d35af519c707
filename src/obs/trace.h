// Structured per-request tracing for the serving stack: every stage a
// request passes through — admission, queue wait, coalesce window,
// the fused launch (one kernel span per layer), retry backoff,
// completion or shed — becomes a span in a fixed-capacity lock-free
// ring of POD events, exportable as Chrome trace-event JSON that loads
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Recording contract:
//   - Record() is wait-free on the hot path: one relaxed fetch_add to
//     claim a slot, a POD copy, one release store to publish. No
//     allocation, no lock, no string formatting.
//   - The slots are allocated on the first SetEnabled(true), not at
//     construction: a server that never traces never pays for the
//     ring. The allocation is published with release/acquire, so
//     Record(), size() and Snapshot() see no ring or a whole one.
//   - The buffer is fixed capacity and DROPS NEWEST once full (the
//     `dropped` counter says how many): overwriting oldest would need
//     writer-writer synchronization on wrapped slots, and a bounded
//     prefix of a serving run is the more useful artifact anyway —
//     size the capacity to the window you care about.
//   - Snapshot()/WriteChromeTrace() are safe concurrently with
//     recording: a slot is only read after its release-published
//     `ready` flag is observed (acquire), so readers never see a
//     half-written event. Clear() is NOT — it requires quiescence
//     (e.g. after BatchServer::Drain).
//
// Track layout of the export: pid 1 "shflbw server" holds one track
// per replica (kernel, coalesce and retry spans — what the scheduler
// thread was doing); pid 2 "requests" holds one track per request id
// (admission, queue, run, shed spans — what each request experienced).
// A fused launch is K request `run` spans sharing one set of kernel
// spans; they correlate through the `batch` arg carried by both.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace shflbw {
namespace obs {

/// Sentinel for "no request/batch attached to this span".
inline constexpr std::uint64_t kNoId = ~0ULL;

enum class SpanKind : std::uint8_t {
  kAdmission = 0,  // submit entry -> verdict          (request track)
  kQueue,          // submit -> batch seal             (request track)
  kCoalesce,       // window wait begin -> seal        (replica track)
  kKernel,         // one fused layer launch           (replica track)
  kRetry,          // fault -> end of backoff sleep    (replica track)
  kRun,            // dispatch -> completion           (request track)
  kShed,           // seal-time deadline drop          (request track)
};

const char* SpanKindName(SpanKind kind);

/// One completed span. POD on purpose: recorded whole with no
/// allocation; the two label fields carry the layer / format names of
/// kernel spans (truncated, never unterminated).
struct TraceEvent {
  SpanKind kind = SpanKind::kQueue;
  double begin_seconds = 0;  // NowSeconds timebase
  double end_seconds = 0;
  std::uint64_t request_id = kNoId;  // kNoId on replica-scoped spans
  std::uint64_t batch_id = kNoId;    // fused-launch correlation key
  std::int32_t replica = -1;
  std::int32_t level = -1;    // ladder level (run/kernel spans)
  std::int32_t layer = -1;    // layer index (kernel spans)
  std::int32_t width = 0;     // fused width (kernel/run/coalesce spans)
  std::int32_t attempt = -1;  // retry ordinal (retry spans)
  std::int32_t retries = 0;   // retries the launch needed (run spans)
  std::int32_t detail = 0;    // admission verdict / shed marker
  char label[32] = {0};       // layer name (kernel spans)
  char label2[16] = {0};      // format name (kernel spans)

  void SetLabel(const std::string& s);
  void SetLabel2(const std::string& s);
};

/// Fixed-capacity lock-free span buffer; see the header comment for
/// the recording contract. Recording is atomics-only, so the recorder
/// takes no capability annotations (common/thread_annotations.h) and
/// is safe to call from any thread with any subsystem mutex held.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Runtime switch; Record() is a no-op while disabled. Off by
  /// default — tracing is opt-in per server/engine. The first enable
  /// allocates the ring.
  void SetEnabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const TraceEvent& ev) {
    if (!enabled()) return;
    Slot* const slots = slots_.load(std::memory_order_acquire);
    if (slots == nullptr) return;  // enable still publishing the ring
    const std::uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slot& s = slots[idx];
    s.ev = ev;
    s.ready.store(true, std::memory_order_release);
  }

  /// The configured capacity, whether or not the ring is allocated yet.
  std::size_t capacity() const { return capacity_; }
  /// Events published so far (<= capacity).
  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  double start_seconds() const { return start_seconds_; }

  /// Copies every published event (begin-time sorted). Safe
  /// concurrently with recording.
  std::vector<TraceEvent> Snapshot() const;

  /// Resets the buffer. Requires quiescence: no concurrent Record().
  void Clear();

  /// Chrome trace-event JSON ("X" complete events + process/thread
  /// metadata), microsecond timestamps relative to the recorder's
  /// start. Loads in Perfetto and chrome://tracing.
  void WriteChromeTrace(std::ostream& os) const;
  /// WriteChromeTrace to a file; false (with no partial file promise)
  /// when the path cannot be opened.
  bool DumpChromeTrace(const std::string& path) const;

 private:
  struct Slot {
    TraceEvent ev;
    std::atomic<bool> ready{false};
  };

  const std::size_t capacity_;
  /// Owned array of capacity_ slots; null until the first enable.
  std::atomic<Slot*> slots_{nullptr};
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
  double start_seconds_ = 0;
};

}  // namespace obs
}  // namespace shflbw
