#include "obs/flight_recorder.h"

#include <fstream>
#include <ostream>

#include "obs/json_escape.h"

namespace shflbw {
namespace obs {

const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kSubmit: return "submit";
    case FlightKind::kReject: return "reject";
    case FlightKind::kSeal: return "seal";
    case FlightKind::kLaunch: return "launch";
    case FlightKind::kComplete: return "complete";
    case FlightKind::kRetry: return "retry";
    case FlightKind::kShed: return "shed";
    case FlightKind::kShift: return "shift";
    case FlightKind::kStall: return "stall";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      slots_(new Slot[capacity_]) {}

void FlightRecorder::Record(const FlightEvent& ev) {
  const std::uint64_t t = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[t % capacity_];
  const std::uint64_t gen = t / capacity_;
  // Claim the slot for this generation. Failure means we were lapped
  // (a later generation already claimed it) or the previous lap's
  // writer is still mid-write; either way the event is stale relative
  // to what the ring now holds, so drop it rather than spin.
  std::uint64_t expect = 2 * gen;
  if (!s.seq.compare_exchange_strong(expect, 2 * gen + 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint64_t words[8];
  std::memcpy(words, &ev, sizeof ev);
  for (std::size_t i = 0; i < 8; ++i) {
    s.words[i].store(words[i], std::memory_order_relaxed);
  }
  s.seq.store(2 * (gen + 1), std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = total > capacity_ ? total - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(total - begin));
  for (std::uint64_t t = begin; t < total; ++t) {
    const Slot& s = slots_[t % capacity_];
    const std::uint64_t want = 2 * (t / capacity_ + 1);
    if (s.seq.load(std::memory_order_acquire) != want) continue;
    std::uint64_t words[8];
    for (std::size_t i = 0; i < 8; ++i) {
      words[i] = s.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    // Re-check: if a writer claimed the slot while we copied, the copy
    // may be torn — discard it. Unchanged seq proves the words we read
    // all belong to generation t / capacity_.
    if (s.seq.load(std::memory_order_relaxed) != want) continue;
    FlightEvent ev;
    std::memcpy(&ev, words, sizeof ev);
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::WriteJson(std::ostream& os) const {
  const std::vector<FlightEvent> events = Snapshot();
  os.precision(9);
  os << "{\n";
  os << "  \"total\": " << total() << ",\n";
  os << "  \"dropped\": " << dropped() << ",\n";
  os << "  \"capacity\": " << capacity_ << ",\n";
  os << "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& ev = events[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"kind\": \"" << FlightKindName(ev.kind) << "\""
       << ", \"t\": " << ev.t_seconds;
    if (ev.request_id != FlightEvent::kNoId) {
      os << ", \"request\": " << ev.request_id;
    }
    if (ev.batch_id != FlightEvent::kNoId) {
      os << ", \"batch\": " << ev.batch_id;
    }
    if (ev.replica >= 0) {
      os << ", \"replica\": " << static_cast<int>(ev.replica);
    }
    if (ev.level >= 0) os << ", \"level\": " << ev.level;
    if (ev.width > 0) os << ", \"width\": " << ev.width;
    if (ev.detail != 0) os << ", \"detail\": " << ev.detail;
    if (ev.detail2 != 0) os << ", \"detail2\": " << ev.detail2;
    if (ev.value != 0) os << ", \"value\": " << ev.value;
    if (ev.label[0] != '\0') {
      os << ", \"label\": \"" << JsonEscape(ev.label) << "\"";
    }
    os << "}";
  }
  os << (events.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

bool FlightRecorder::DumpJson(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  WriteJson(os);
  os.flush();
  return os.good();
}

void FlightRecorder::Clear() {
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
    for (std::size_t w = 0; w < 8; ++w) {
      slots_[i].words[w].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace obs
}  // namespace shflbw
