// Always-on bounded flight recorder: a lock-free ring of the last ~4k
// structured scheduler events (submit / seal / launch / retry / shed /
// shift / ...), cheap enough to leave recording in production and
// dumped to disk on a watchdog stall, a fatal error, or an explicit
// operator request. This is the postmortem half of the observability
// layer: metrics say *that* something went wrong, the flight recorder
// says what the scheduler was doing right before it did.
//
// Concurrency design (all std::atomic, so TSan-provable and free of
// capability annotations — the same contract as TraceRecorder and
// FaultInjector):
//
//   - A writer claims a ticket t with a relaxed fetch_add; its slot is
//     t % capacity and its generation g = t / capacity.
//   - Each slot carries a seqlock word: 2*g means "generation g may
//     write", odd means "write in progress", 2*(g+1) means "generation
//     g published". The writer CASes 2*g -> 2*g+1, stores the payload,
//     then release-stores 2*(g+1).
//   - A writer that lost its slot (it was lapped before it could
//     claim, or the previous lap's writer is still mid-write) drops
//     its event and bumps `dropped` instead of spinning: recording is
//     wait-free, which is what lets it sit on the scheduler's paths.
//   - Readers (Snapshot) accept a slot only when the seqlock word
//     reads 2*(g+1) before *and* after copying the payload, so a
//     concurrent overwrite can only hide an event, never tear one.
//
// Unlike TraceRecorder (drop-newest, bounded per run), the flight ring
// *wraps*: it always holds the most recent events, which is the only
// useful behaviour for a postmortem buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace shflbw {
namespace obs {

/// What happened. Mirrors the scheduler's decision points; kStall is
/// recorded by the watchdog callback so the dump shows the detection
/// itself in sequence with the events that led to it.
enum class FlightKind : std::uint8_t {
  kSubmit = 0,
  kReject,
  kSeal,
  kLaunch,
  kComplete,
  kRetry,
  kShed,
  kShift,
  kStall,
};

const char* FlightKindName(FlightKind kind);

/// One recorded event. Exactly 64 bytes and trivially copyable: the
/// ring stores it as eight relaxed atomic words, so the layout is part
/// of the concurrency contract (see static_asserts below).
struct FlightEvent {
  static constexpr std::uint64_t kNoId = ~0ULL;

  double t_seconds = 0;             ///< Clock::NowSeconds at record time.
  std::uint64_t request_id = kNoId; ///< Request id, or kNoId.
  std::uint64_t batch_id = kNoId;   ///< Batch id, or kNoId.
  double value = 0;                 ///< Kind-specific (seconds, age, ...).
  std::int32_t detail = 0;          ///< Kind-specific small payload.
  std::int32_t detail2 = 0;         ///< Second kind-specific payload.
  FlightKind kind = FlightKind::kSubmit;
  std::int8_t replica = -1;         ///< Replica index, -1 = none.
  std::int16_t level = -1;          ///< Ladder level, -1 = none.
  std::int32_t width = 0;           ///< Batch width where it applies.
  char label[16] = {};              ///< NUL-terminated annotation.

  /// Copies `s` into `label`, truncating; always NUL-terminates.
  void SetLabel(const char* s) {
    std::strncpy(label, s, sizeof(label) - 1);
    label[sizeof(label) - 1] = '\0';
  }
};

static_assert(sizeof(FlightEvent) == 64,
              "FlightEvent must stay exactly eight 64-bit words: the "
              "ring publishes it word-by-word through atomics");

/// The ring. One instance lives inside Telemetry next to the registry
/// and the trace recorder; capacity comes from
/// TelemetryOptions::flight_capacity.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event. Wait-free; never blocks, never allocates.
  void Record(const FlightEvent& ev);

  /// Copies out the surviving window of recent events in ticket
  /// (i.e. chronological-claim) order. Safe to call concurrently with
  /// writers: events being overwritten right now are skipped, never
  /// torn.
  [[nodiscard]] std::vector<FlightEvent> Snapshot() const;

  /// Total events ever recorded (including ones since overwritten).
  [[nodiscard]] std::uint64_t total() const {
    return next_.load(std::memory_order_acquire);
  }
  /// Events dropped because the writer was lapped mid-claim.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Renders a Snapshot as a JSON document (object with a summary
  /// header and an `events` array).
  void WriteJson(std::ostream& os) const;

  /// Dumps WriteJson to `path`; false on I/O failure. File output in
  /// obs/ is concentrated here and in statusz/trace — the repo lint's
  /// logging rule pins the sanctioned sink list.
  [[nodiscard]] bool DumpJson(const std::string& path) const;

  /// Resets the ring. Requires quiescence (no concurrent writers):
  /// meant for tests, not for live servers.
  void Clear();

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[8] = {};
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace obs
}  // namespace shflbw
