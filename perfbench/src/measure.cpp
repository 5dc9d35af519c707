#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "obs/json_escape.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  const std::size_t n = values.size();
  if (n < 2) return q;
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method='exclusive': 1-based position
  // i*(n+1)/4, interpolated between samples j and j+1 with j clamped to
  // [1, n-1] — so the ends extrapolate exactly as Python does.
  const auto at = [&](long i) {
    const long len = static_cast<long>(n);
    const long m = len + 1;
    const long j = std::clamp(i * m / 4, 1L, len - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (values[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            values[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  q.q1 = at(1);
  q.q2 = at(2);
  q.q3 = at(3);
  return q;
}

namespace {

// Nearest-rank index (0-based) of the pct percentile of n samples. The
// small epsilon keeps products like 0.9 * 100 from rounding up a rank.
std::size_t RankIndex(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) - 1;
}

}  // namespace

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[RankIndex(values.size(), pct)];
}

std::size_t SamplesBeyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, pct);
}

int TailPercentile(std::size_t n) {
  for (const int pct : {99, 90}) {
    if (SamplesBeyond(n, pct) >= 10) return pct;
  }
  return 0;
}

std::size_t MinSamplesFor(int pct) {
  std::size_t n = 1;
  while (SamplesBeyond(n, pct) < 10) ++n;
  return n;
}

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t workload_seed, std::uint64_t stream,
                         std::uint64_t index) {
  return SplitMix64(SplitMix64(SplitMix64(workload_seed) ^ stream) ^ index);
}

std::uint64_t Digest(const shflbw::Matrix<float>& m) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint32_t word) { h = (h ^ word) * kPrime; };
  mix(static_cast<std::uint32_t>(m.rows()));
  mix(static_cast<std::uint32_t>(m.cols()));
  const float* data = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof bits);
    mix(bits);
  }
  return h;
}

std::uint64_t CountMismatches(
    const std::vector<Served>& served,
    const std::function<shflbw::Matrix<float>(std::uint64_t)>& reference) {
  std::uint64_t mismatches = 0;
  for (const Served& s : served) {
    if (Digest(reference(s.seed)) != s.digest) ++mismatches;
  }
  return mismatches;
}

int Trace::Open(std::string name, int parent, std::uint64_t id,
                std::string layer) {
  const double now = shflbw::NowSeconds();
  return Add(std::move(name), now, now, parent, id, std::move(layer));
}

void Trace::Close(int span) {
  spans_[static_cast<std::size_t>(span)].end = shflbw::NowSeconds();
}

int Trace::Add(std::string name, double start, double end, int parent,
               std::uint64_t id, std::string layer) {
  spans_.push_back(Span{std::move(name), start, end, parent, id,
                        std::move(layer)});
  return static_cast<int>(spans_.size()) - 1;
}

bool Trace::WriteJson(const std::string& path,
                      const std::string& kernel_source) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfSeconds(spans_);
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  using shflbw::obs::JsonEscape;
  std::fprintf(f, "{\"kernel_span_source\": \"%s\", \"spans\": [\n",
               JsonEscape(kernel_source).c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"i\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"parent\": %d, \"id\": %llu, \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 i, JsonEscape(s.name).c_str(), JsonEscape(s.layer).c_str(),
                 s.parent,
                 static_cast<unsigned long long>(s.id), s.start - origin,
                 s.end - origin, self[i], i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, reach = -INFINITY;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].Seconds() - covered;
  }
  return self;
}

}  // namespace perfbench
