#include "prune/kmeans.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <random>

#include "common/check.h"

namespace shflbw {
namespace {

constexpr int kRestarts = 3;  // guard against unlucky seedings

void ValidateArgs(const Matrix<float>& mask, int v, const KMeansOptions& opts) {
  SHFLBW_CHECK_MSG(v > 0 && mask.rows() % v == 0,
                   "rows=" << mask.rows() << " not divisible by V=" << v);
  SHFLBW_CHECK_MSG(opts.iterations >= 1,
                   "KMeansOptions.iterations must be >= 1 (each round "
                   "assigns every row to a group), got "
                       << opts.iterations);
}

/// Runs kRestarts k-means runs off one generator and emits the
/// lowest-cost grouping. `run_once(gen, assignment)` seeds from `gen`,
/// sets assignment[row] = cluster and returns the run's cost.
template <typename RunOnce>
RowGrouping BestOfRestarts(int m, int v, std::uint64_t seed,
                           RunOnce run_once) {
  std::mt19937_64 gen(seed);
  std::vector<int> best_assignment;
  double best_distance = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < kRestarts; ++restart) {
    std::vector<int> assignment;
    const double d = run_once(gen, assignment);
    if (d < best_distance) {
      best_distance = d;
      best_assignment = std::move(assignment);
    }
  }

  // Emit the permutation: cluster 0's rows first, then cluster 1's, ...
  RowGrouping out;
  out.total_distance = best_distance;
  out.storage_to_original.reserve(m);
  for (int cl = 0; cl < m / v; ++cl) {
    for (int r = 0; r < m; ++r) {
      if (best_assignment[r] == cl) out.storage_to_original.push_back(r);
    }
  }
  return out;
}

// ---- Reference path: double-precision distances ------------------------

double SquaredDistance(const float* row, const double* centroid, int k) {
  double d = 0.0;
  for (int c = 0; c < k; ++c) {
    const double diff = static_cast<double>(row[c]) - centroid[c];
    d += diff * diff;
  }
  return d;
}

/// k-means++ style seeding: first seed random, each further seed is the
/// row farthest (in min-distance) from the chosen set. Deterministic
/// given the generator state. Spread-out seeds matter here: two seeds
/// landing in the same row-pattern cluster force the balanced assignment
/// to split that cluster, which plain random sampling does frequently.
std::vector<int> PlusPlusSeeds(const Matrix<float>& mask, int clusters,
                               std::mt19937_64& gen) {
  const int m = mask.rows();
  const int k = mask.cols();
  std::vector<int> seeds;
  std::uniform_int_distribution<int> first(0, m - 1);
  seeds.push_back(first(gen));
  std::vector<double> min_dist(static_cast<std::size_t>(m),
                               std::numeric_limits<double>::infinity());
  while (static_cast<int>(seeds.size()) < clusters) {
    const float* last = mask.row(seeds.back());
    for (int r = 0; r < m; ++r) {
      double d = 0.0;
      const float* row = mask.row(r);
      for (int c = 0; c < k; ++c) {
        const double diff = static_cast<double>(row[c]) - last[c];
        d += diff * diff;
      }
      min_dist[r] = std::min(min_dist[r], d);
    }
    int best = 0;
    for (int r = 1; r < m; ++r) {
      if (min_dist[r] > min_dist[best]) best = r;
    }
    seeds.push_back(best);
    min_dist[best] = -1.0;  // never re-picked
  }
  return seeds;
}

/// One full k-means run from a fresh seeding; returns assignment + cost.
double RunOnceReference(const Matrix<float>& mask, int v, int iterations,
                        std::mt19937_64& gen, std::vector<int>& assignment) {
  const int m = mask.rows();
  const int k = mask.cols();
  const int clusters = m / v;

  const std::vector<int> seeds = PlusPlusSeeds(mask, clusters, gen);
  std::vector<double> centroids(static_cast<std::size_t>(clusters) * k);
  for (int cl = 0; cl < clusters; ++cl) {
    const float* row = mask.row(seeds[cl]);
    for (int c = 0; c < k; ++c) {
      centroids[static_cast<std::size_t>(cl) * k + c] = row[c];
    }
  }

  assignment.assign(static_cast<std::size_t>(m), -1);
  double total_distance = 0.0;

  for (int iter = 0; iter < iterations; ++iter) {
    // Balanced assignment: all (row, cluster) distances, matched
    // greedily in ascending order with per-cluster capacity V.
    struct Pair {
      double dist;
      int row;
      int cluster;
    };
    std::vector<Pair> pairs;
    pairs.reserve(static_cast<std::size_t>(m) * clusters);
    for (int r = 0; r < m; ++r) {
      for (int cl = 0; cl < clusters; ++cl) {
        pairs.push_back({SquaredDistance(
                             mask.row(r),
                             &centroids[static_cast<std::size_t>(cl) * k], k),
                         r, cl});
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
      if (a.dist != b.dist) return a.dist < b.dist;
      if (a.row != b.row) return a.row < b.row;
      return a.cluster < b.cluster;
    });
    std::fill(assignment.begin(), assignment.end(), -1);
    std::vector<int> load(static_cast<std::size_t>(clusters), 0);
    int assigned = 0;
    total_distance = 0.0;
    for (const Pair& p : pairs) {
      if (assigned == m) break;
      if (assignment[p.row] != -1 || load[p.cluster] == v) continue;
      assignment[p.row] = p.cluster;
      ++load[p.cluster];
      ++assigned;
      total_distance += p.dist;
    }
    SHFLBW_CHECK(assigned == m);

    // Centroid update: mean of assigned rows.
    std::fill(centroids.begin(), centroids.end(), 0.0);
    for (int r = 0; r < m; ++r) {
      double* cen = &centroids[static_cast<std::size_t>(assignment[r]) * k];
      const float* row = mask.row(r);
      for (int c = 0; c < k; ++c) cen[c] += row[c];
    }
    for (std::size_t i = 0; i < centroids.size(); ++i) {
      centroids[i] /= v;
    }
  }
  return total_distance;
}

// ---- Integer path: exact for 0/1 rows and power-of-two V ---------------

/// True when the integer path reproduces the reference bit for bit (see
/// kmeans.h): there are rows to cluster, V is a power of two, every
/// numerator the double code forms (at most m*k*V^2) stays within 2^53,
/// and a dot product r.C (at most k*V) fits the 32-bit accumulators.
bool IntegerPathIsExact(int m, int k, int v) {
  if (m == 0 || !std::has_single_bit(static_cast<unsigned>(v))) return false;
  const std::uint64_t v2 = static_cast<std::uint64_t>(v) * v;
  const std::uint64_t mk = static_cast<std::uint64_t>(m) * k;
  return mk <= (std::uint64_t{1} << 53) / v2 &&
         static_cast<std::uint64_t>(k) * v <=
             std::numeric_limits<std::uint32_t>::max();
}

/// A 0/1 mask as bit rows: column c of row r is bit c % 64 of word c / 64.
struct BitRows {
  int rows = 0;
  int words = 0;                    // per row
  std::vector<std::uint64_t> bits;  // rows x words
  std::vector<int> ones;            // |r|: set bits per row

  const std::uint64_t* row(int r) const {
    return &bits[static_cast<std::size_t>(r) * words];
  }
};

/// Packs `mask` into bit rows, or nullopt if an entry is not 0 or 1.
std::optional<BitRows> PackBinaryRows(const Matrix<float>& mask) {
  BitRows b;
  b.rows = mask.rows();
  b.words = (mask.cols() + 63) / 64;
  b.bits.assign(static_cast<std::size_t>(b.rows) * b.words, 0);
  b.ones.assign(static_cast<std::size_t>(b.rows), 0);
  for (int r = 0; r < b.rows; ++r) {
    const float* row = mask.row(r);
    std::uint64_t* out = &b.bits[static_cast<std::size_t>(r) * b.words];
    for (int c = 0; c < mask.cols(); ++c) {
      if (row[c] == 1.0f) {
        out[c / 64] |= std::uint64_t{1} << (c % 64);
        ++b.ones[r];
      } else if (row[c] != 0.0f) {
        return std::nullopt;
      }
    }
  }
  return b;
}

template <typename Fn>
void ForEachSetBit(const std::uint64_t* bits, int words, Fn fn) {
  for (int w = 0; w < words; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      fn(w * 64 + std::countr_zero(word));
    }
  }
}

/// Balanced k-means on bit rows in exact integer arithmetic. A centroid
/// is its column counts C (V x the reference's mean), so the squared
/// distance scaled by V^2 is D = V^2*|r| - 2V*(r.C) + sum(C^2). The
/// (D, row, cluster) pairs are packed into one uint64 sort key. Scratch
/// is sized once and reused by every restart and iteration.
class IntegerKMeans {
 public:
  IntegerKMeans(const BitRows& rows, int k, int v)
      : rows_(rows),
        v_(v),
        m_(rows.rows),
        clusters_(rows.rows / v),
        cluster_bits_(std::bit_width(static_cast<unsigned>(clusters_ - 1))),
        dist_shift_(cluster_bits_ +
                    std::bit_width(static_cast<unsigned>(m_ - 1))),
        dist_bits_(std::bit_width(static_cast<std::uint64_t>(k) * v * v)),
        counts_(static_cast<std::size_t>(k) * clusters_),
        sum_sq_(static_cast<std::size_t>(clusters_)),
        dot_(static_cast<std::size_t>(clusters_)),
        load_(static_cast<std::size_t>(clusters_)),
        keys_(static_cast<std::size_t>(m_) * clusters_),
        scratch_(keys_.size()) {
    SHFLBW_CHECK_MSG(dist_shift_ + dist_bits_ <= 64,
                     "k-means sort key needs "
                         << dist_bits_ << " distance + "
                         << dist_shift_ - cluster_bits_ << " row + "
                         << cluster_bits_ << " cluster bits (m=" << m_
                         << ", k=" << k << ", V=" << v
                         << "), more than 64");
  }

  /// One full run from a fresh seeding; returns assignment + cost.
  double RunOnce(int iterations, std::mt19937_64& gen,
                 std::vector<int>& assignment) {
    SeedCentroids(PlusPlusSeeds(gen));
    assignment.assign(static_cast<std::size_t>(m_), -1);
    std::uint64_t total = 0;
    for (int iter = 0; iter < iterations; ++iter) {
      if (iter > 0) UpdateCentroids(assignment);
      WriteSortedKeys();
      total = AssignGreedy(assignment);
    }
    return static_cast<double>(total) /
           (static_cast<double>(v_) * static_cast<double>(v_));
  }

 private:
  /// The reference's seeding with Hamming distances, which equal its
  /// double sums of squared 0/1 differences exactly.
  std::vector<int> PlusPlusSeeds(std::mt19937_64& gen) const {
    std::vector<int> seeds;
    std::uniform_int_distribution<int> first(0, m_ - 1);
    seeds.push_back(first(gen));
    std::vector<int> min_dist(static_cast<std::size_t>(m_),
                              std::numeric_limits<int>::max());
    while (static_cast<int>(seeds.size()) < clusters_) {
      const std::uint64_t* last = rows_.row(seeds.back());
      for (int r = 0; r < m_; ++r) {
        const std::uint64_t* row = rows_.row(r);
        int d = 0;
        for (int w = 0; w < rows_.words; ++w) {
          d += std::popcount(row[w] ^ last[w]);
        }
        min_dist[r] = std::min(min_dist[r], d);
      }
      int best = 0;
      for (int r = 1; r < m_; ++r) {
        if (min_dist[r] > min_dist[best]) best = r;
      }
      seeds.push_back(best);
      min_dist[best] = -1;  // never re-picked
    }
    return seeds;
  }

  /// counts_ holds C transposed: counts_[c * clusters_ + cl], so one
  /// column's counts for every cluster are contiguous.
  void SeedCentroids(const std::vector<int>& seeds) {
    std::fill(counts_.begin(), counts_.end(), 0u);
    for (int cl = 0; cl < clusters_; ++cl) {
      std::uint32_t* col = counts_.data() + cl;
      ForEachSetBit(rows_.row(seeds[cl]), rows_.words, [&](int c) {
        col[static_cast<std::size_t>(c) * clusters_] =
            static_cast<std::uint32_t>(v_);
      });
    }
    SumSquares();
  }

  void UpdateCentroids(const std::vector<int>& assignment) {
    std::fill(counts_.begin(), counts_.end(), 0u);
    const int clusters = clusters_;  // not reloaded per store (see below)
    for (int r = 0; r < m_; ++r) {
      std::uint32_t* col = counts_.data() + assignment[r];
      ForEachSetBit(rows_.row(r), rows_.words, [&](int c) {
        ++col[static_cast<std::size_t>(c) * clusters];
      });
    }
    SumSquares();
  }

  void SumSquares() {
    std::fill(sum_sq_.begin(), sum_sq_.end(), 0);
    for (std::size_t i = 0; i < counts_.size(); i += clusters_) {
      for (int cl = 0; cl < clusters_; ++cl) {
        const std::int64_t c = counts_[i + cl];
        sum_sq_[cl] += c * c;
      }
    }
  }

  /// Writes every pair's key in ascending (row, cluster) order, then
  /// sorts by distance.
  void WriteSortedKeys() {
    const std::int64_t v2 = static_cast<std::int64_t>(v_) * v_;
    const std::int64_t two_v = 2 * static_cast<std::int64_t>(v_);
    // A local count: a store through a uint32 pointer may alias an int
    // member, so reading clusters_ would reload it after every store and
    // stop the add loop from vectorizing.
    const int clusters = clusters_;
    std::uint64_t* key = keys_.data();
    for (int r = 0; r < m_; ++r) {
      std::fill(dot_.begin(), dot_.end(), 0u);
      std::uint32_t* dot = dot_.data();
      ForEachSetBit(rows_.row(r), rows_.words, [&](int c) {
        const std::uint32_t* col =
            counts_.data() + static_cast<std::size_t>(c) * clusters;
        for (int cl = 0; cl < clusters; ++cl) dot[cl] += col[cl];
      });
      const std::int64_t base = v2 * rows_.ones[r];
      const std::uint64_t row_field = static_cast<std::uint64_t>(r)
                                      << cluster_bits_;
      for (int cl = 0; cl < clusters; ++cl) {
        const std::int64_t d = base - two_v * dot[cl] + sum_sq_[cl];
        *key++ = static_cast<std::uint64_t>(d) << dist_shift_ | row_field |
                 static_cast<std::uint64_t>(cl);
      }
    }
    SortByDistance();
  }

  /// Stable LSD radix sort on the distance field. The keys were written
  /// in ascending (row, cluster) order, which is the order of their low
  /// bits, so sorting stably by distance leaves them ascending as whole
  /// keys: the reference's (distance, row, cluster) order.
  void SortByDistance() {
    // Equal digits of at most 11 bits: the fewest passes, each with the
    // fewest buckets (a 15-bit field sorts as 8 + 7 bits, not 11 + 4).
    constexpr int kMaxDigitBits = 11;
    const int passes = (dist_bits_ + kMaxDigitBits - 1) / kMaxDigitBits;
    if (passes == 0) return;
    const int width = (dist_bits_ + passes - 1) / passes;
    std::array<std::size_t, std::size_t{1} << kMaxDigitBits> start;
    const int end = dist_shift_ + dist_bits_;
    for (int lo = dist_shift_; lo < end; lo += width) {
      const std::uint64_t digit =
          (std::uint64_t{1} << std::min(width, end - lo)) - 1;
      std::fill(start.begin(), start.begin() + digit + 1, 0);
      for (const std::uint64_t k : keys_) ++start[k >> lo & digit];
      std::size_t offset = 0;
      for (std::size_t b = 0; b <= digit; ++b) {
        const std::size_t n = start[b];
        start[b] = offset;
        offset += n;
      }
      for (const std::uint64_t k : keys_) {
        scratch_[start[k >> lo & digit]++] = k;
      }
      keys_.swap(scratch_);
    }
  }

  /// The reference's greedy matching over the sorted keys; returns the
  /// sum of the matched distances D.
  std::uint64_t AssignGreedy(std::vector<int>& assignment) {
    std::fill(assignment.begin(), assignment.end(), -1);
    std::fill(load_.begin(), load_.end(), 0);
    const std::uint64_t row_mask =
        (std::uint64_t{1} << (dist_shift_ - cluster_bits_)) - 1;
    const std::uint64_t cluster_mask =
        (std::uint64_t{1} << cluster_bits_) - 1;
    int assigned = 0;
    std::uint64_t total = 0;
    for (const std::uint64_t key : keys_) {
      if (assigned == m_) break;
      const int row = static_cast<int>(key >> cluster_bits_ & row_mask);
      const int cl = static_cast<int>(key & cluster_mask);
      if (assignment[row] != -1 || load_[cl] == v_) continue;
      assignment[row] = cl;
      ++load_[cl];
      ++assigned;
      total += key >> dist_shift_;
    }
    SHFLBW_CHECK(assigned == m_);
    return total;
  }

  const BitRows& rows_;
  const int v_;
  const int m_;
  const int clusters_;
  // Key layout, low to high: cluster, row, distance D.
  const int cluster_bits_;
  const int dist_shift_;
  const int dist_bits_;
  std::vector<std::uint32_t> counts_;  // C, transposed (k x clusters)
  std::vector<std::int64_t> sum_sq_;   // sum over columns of C^2
  std::vector<std::uint32_t> dot_;     // r.C for the current row
  std::vector<int> load_;              // rows matched per cluster
  std::vector<std::uint64_t> keys_;    // one per (row, cluster) pair
  std::vector<std::uint64_t> scratch_;  // radix sort buffer
};

}  // namespace

RowGrouping BalancedKMeansRows(const Matrix<float>& mask, int v,
                               const KMeansOptions& opts) {
  ValidateArgs(mask, v, opts);
  if (IntegerPathIsExact(mask.rows(), mask.cols(), v)) {
    if (const std::optional<BitRows> rows = PackBinaryRows(mask)) {
      IntegerKMeans km(*rows, mask.cols(), v);
      return BestOfRestarts(
          mask.rows(), v, opts.seed,
          [&](std::mt19937_64& gen, std::vector<int>& assignment) {
            return km.RunOnce(opts.iterations, gen, assignment);
          });
    }
  }
  return BalancedKMeansRowsReference(mask, v, opts);
}

RowGrouping BalancedKMeansRowsReference(const Matrix<float>& mask, int v,
                                        const KMeansOptions& opts) {
  ValidateArgs(mask, v, opts);
  return BestOfRestarts(
      mask.rows(), v, opts.seed,
      [&](std::mt19937_64& gen, std::vector<int>& assignment) {
        return RunOnceReference(mask, v, opts.iterations, gen, assignment);
      });
}

}  // namespace shflbw
