// Balanced K-Means over binary row masks — the row-grouping stage of the
// Shfl-BW search (Fig. 5 step (c)-(d)): "invoke the K-Means algorithm to
// cluster the rows in the binary mask into groups with a fixed size V".
//
// Two paths, one result. Each restart seeds k-means++ style (a uniform
// first row, then the row farthest from the chosen set), then runs
// `iterations` rounds of balanced assignment plus centroid update; the
// lowest-cost of three restarts wins.
//
//  - Integer path: every entry is 0 or 1 and V is a power of two (the
//    Shfl-BW search's masks are binary, so it qualifies at every
//    power-of-two V). A centroid is kept as its column counts C in [0, V],
//    i.e. V x the mean, and a row as a bit row, so
//        V^2 * d(r, C/V) = V^2*|r| - 2V*(r.C) + sum(C^2)
//    is an integer, seeding distances are Hamming distances, and the
//    balanced assignment sorts (distance, row, cluster) as one packed
//    uint64 key.
//  - Reference path: every other input (a V that is not a power of two,
//    any entry other than 0 or 1) keeps the double-precision k-means.
//    `BalancedKMeansRowsReference` runs it on any input; the tests use
//    it as the oracle for the integer path.
//
// Why the two agree bit for bit: with 0/1 rows and a power-of-two V, a
// centroid entry C/V, a difference r - C/V and its square are exact
// multiples of 1/V^2 with small numerators, and so is every partial sum
// the double code forms while the numerator stays within 2^53. The
// integer path is taken only when m*k*V^2 <= 2^53 (and k*V < 2^32, so
// r.C fits its 32-bit accumulators). Each double distance is therefore
// exactly D/V^2 for the integer D above, so the two paths order pairs
// identically, ties included, and `total_distance` is sum(D)/V^2, the
// same double. Both draw from the same std::mt19937_64 in the same
// order, so they pick the same seeds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"

namespace shflbw {

struct KMeansOptions {
  int iterations = 10;  // assignment + update rounds per restart; >= 1
  std::uint64_t seed = 42;  // centroid initialization
};

/// Result of balanced clustering: a permutation placing each group's V
/// rows contiguously (storage_to_original[s] = original row of storage
/// slot s), plus the final assignment cost.
struct RowGrouping {
  std::vector<int> storage_to_original;
  double total_distance = 0.0;  // sum of squared distances to centroids
};

/// Clusters the rows of `mask` (entries 0/1) into rows/V groups of
/// exactly V rows each, minimizing within-group pattern disagreement.
/// Balanced assignment: (row, centroid) pairs are greedily matched in
/// ascending (distance, row, cluster) order, closing centroids once
/// full. Takes the integer path when it is exact (see above), else the
/// reference path; the result is the same either way.
RowGrouping BalancedKMeansRows(const Matrix<float>& mask, int v,
                               const KMeansOptions& opts = {});

/// The double-precision k-means on any input: the path for inputs the
/// integer path cannot take exactly, and the oracle it is tested
/// against.
RowGrouping BalancedKMeansRowsReference(const Matrix<float>& mask, int v,
                                        const KMeansOptions& opts = {});

}  // namespace shflbw
