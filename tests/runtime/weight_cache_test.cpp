// PackedWeightCache contract: pack exactly once per (layer, format,
// density, v), every packed representation expands back to the pruned
// weight it stores — whose mask is the one the quality planner scored
// and on which the format's kernels equal the dense reference —
// and the cache survives concurrent GetOrPack from many threads (the
// BatchServer shares one cache across replicas).
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "format/convert.h"
#include "kernels/gemm_dense.h"
#include "model/weight_synth.h"
#include "prune/balanced24_prune.h"
#include "prune/block_wise.h"
#include "prune/importance.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"
#include "quality/quality_evaluator.h"
#include "runtime/weight_cache.h"

namespace shflbw {
namespace runtime {
namespace {

/// The density a test packs `f` at: its fixed density (2:4), else 0.25.
double TestDensity(Format f) {
  return Ops(f).fixed_density > 0 ? Ops(f).fixed_density : 0.25;
}

/// A packed weight expanded back to dense, original row order.
Matrix<float> Unpack(const PackedWeight& p) {
  switch (p.format) {
    case Format::kDense: return p.dense;
    case Format::kCsr: return p.csr.ToDense();
    case Format::kBsr: return p.bsr.ToDense();
    case Format::kBalanced24: return p.balanced24.ToDense();
    case Format::kVectorWise: return p.vw.ToDense();
    case Format::kShflBw: return p.shflbw.ToDense();
  }
  throw Error("unknown Format");
}

/// What the format's pruner in src/prune/ keeps of `master` (dense:
/// the fp16-rounded master the kernels would see anyway).
Matrix<float> ReferencePrune(Format f, const Matrix<float>& master,
                             double density, int v) {
  switch (f) {
    case Format::kDense: return RoundThroughFp16(master);
    case Format::kCsr: return PruneUnstructured(master, density);
    case Format::kBsr: return PruneBlockWise(master, density, v);
    case Format::kBalanced24: return PruneBalanced24(master);
    case Format::kVectorWise: return PruneVectorWise(master, density, v);
    case Format::kShflBw: return PruneToShflBw(master, density, v).ToDense();
  }
  throw Error("unknown Format");
}

/// `call` must throw the 2:4 entry's named fixed-density error.
void ExpectFixedDensityError(const std::function<void()>& call) {
  try {
    call();
    ADD_FAILURE() << "2:4 at density 0.25 did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2:4 fixes density at 0.5, got 0.25"),
              std::string::npos)
        << e.what();
  }
}

TEST(PackedWeightCache, PacksOncePerKey) {
  Rng rng(7);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;
  EXPECT_EQ(cache.TotalPacks(), 0u);

  const PackedWeight& a = cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 1u);
  const PackedWeight& b = cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 1u);
  EXPECT_EQ(&a, &b);  // same cached object, no re-conversion

  cache.GetOrPack(0, Format::kVectorWise, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 2u);
  cache.GetOrPack(1, Format::kCsr, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 3u);
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_TRUE(cache.Contains(0, Format::kCsr, 0.25, 8));
  EXPECT_FALSE(cache.Contains(1, Format::kVectorWise, 0.25, 8));
}

// Regression: the key must include the prune parameters. A cache shared
// across engines with different density or V settings used to serve the
// first engine's packed weight to the second one silently.
TEST(PackedWeightCache, DensityAndVArePartOfTheKey) {
  Rng rng(17);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;

  const PackedWeight& dense25 =
      cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);
  const PackedWeight& dense50 =
      cache.GetOrPack(0, Format::kCsr, master, 0.50, 8);
  EXPECT_EQ(cache.TotalPacks(), 2u);  // distinct entries, both packed
  EXPECT_NE(&dense25, &dense50);
  // And they really hold different prunes.
  EXPECT_EQ(dense25.csr.ToDense(), PruneUnstructured(master, 0.25));
  EXPECT_EQ(dense50.csr.ToDense(), PruneUnstructured(master, 0.50));

  // Same density, different vector width: also distinct.
  cache.GetOrPack(0, Format::kVectorWise, master, 0.25, 8);
  cache.GetOrPack(0, Format::kVectorWise, master, 0.25, 16);
  EXPECT_EQ(cache.TotalPacks(), 4u);
  EXPECT_TRUE(cache.Contains(0, Format::kVectorWise, 0.25, 8));
  EXPECT_TRUE(cache.Contains(0, Format::kVectorWise, 0.25, 16));
  EXPECT_FALSE(cache.Contains(0, Format::kVectorWise, 0.50, 8));
}

// Hammer: many threads racing GetOrPack over a small key space. Each
// key must pack exactly once, every returned reference must be stable
// (same address for the same key), and the contents must be correct.
TEST(PackedWeightCache, ConcurrentGetOrPackPacksOncePerKey) {
  Rng rng(23);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 50;
  constexpr int kLayers = 4;
  const Format kFormats[] = {Format::kDense, Format::kCsr,
                             Format::kVectorWise};
  constexpr int kNumFormats = 3;

  std::vector<std::vector<const PackedWeight*>> seen(
      kThreads, std::vector<const PackedWeight*>(kLayers * kNumFormats,
                                                 nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        // Walk the key space in a thread-dependent order to vary the
        // interleavings.
        for (int k = 0; k < kLayers * kNumFormats; ++k) {
          const int idx = (k + t * 5 + iter) % (kLayers * kNumFormats);
          const int layer = idx / kNumFormats;
          const Format format = kFormats[idx % kNumFormats];
          const PackedWeight& w =
              cache.GetOrPack(layer, format, master, 0.25, 8);
          if (seen[t][static_cast<std::size_t>(idx)] == nullptr) {
            seen[t][static_cast<std::size_t>(idx)] = &w;
          } else {
            // Stable reference: later lookups return the same object.
            ASSERT_EQ(seen[t][static_cast<std::size_t>(idx)], &w);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one pack per key despite the races...
  EXPECT_EQ(cache.TotalPacks(),
            static_cast<std::size_t>(kLayers * kNumFormats));
  EXPECT_EQ(cache.Size(), static_cast<std::size_t>(kLayers * kNumFormats));
  // ...and every thread saw the same object per key.
  for (int t = 1; t < kThreads; ++t) {
    for (int k = 0; k < kLayers * kNumFormats; ++k) {
      EXPECT_EQ(seen[0][static_cast<std::size_t>(k)],
                seen[t][static_cast<std::size_t>(k)]);
    }
  }
  // Spot-check contents survived the stampede.
  EXPECT_EQ(cache.GetOrPack(0, Format::kCsr, master, 0.25, 8).csr.ToDense(),
            PruneUnstructured(master, 0.25));
}

// Each format's packed representation expands back to exactly what
// that format's pruner in src/prune/ keeps of the master, at the
// target density.
TEST(PackWeight, RepresentationsMatchTheirPrunes) {
  Rng rng(11);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  const int v = 8;
  for (Format f : AllFormats()) {
    const double density = TestDensity(f);
    const Matrix<float> unpacked = Unpack(PackWeight(f, master, density, v));
    EXPECT_EQ(unpacked, ReferencePrune(f, master, density, v))
        << FormatName(f);
    EXPECT_NEAR(1.0 - Sparsity(unpacked),
                f == Format::kDense ? 1.0 : density, 0.02)
        << FormatName(f);
  }
}

// Each format's kernel on its packed weight computes exactly the dense
// reference on the weight it stores: GEMM for every format, implicit-
// GEMM convolution for every format with a conv kernel.
TEST(PackWeight, KernelsMatchTheDenseReferenceOnTheUnpackedWeight) {
  Rng rng(283);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  const Matrix<float> x = rng.NormalMatrix(32, 12);
  for (Format f : AllFormats()) {
    const PackedWeight packed = PackWeight(f, master, TestDensity(f), 8);
    EXPECT_EQ(Ops(f).gemm(packed, x), GemmReference(Unpack(packed), x))
        << FormatName(f);
  }

  ConvShape shape;
  shape.in_c = 4;
  shape.in_h = shape.in_w = 5;
  shape.out_c = 8;
  shape.kh = shape.kw = 3;
  shape.pad = 1;
  const Matrix<float> filters = rng.NormalMatrix(shape.out_c, shape.GemmK());
  Tensor4 input(shape.batch, shape.in_c, shape.in_h, shape.in_w);
  for (float& v : input.data) v = static_cast<float>(rng.Normal());
  int conv_formats = 0;
  for (Format f : AllFormats()) {
    if (Ops(f).conv == nullptr) continue;
    const PackedWeight packed = PackWeight(f, filters, TestDensity(f), 4);
    EXPECT_EQ(Ops(f).conv(packed, shape, input),
              Conv2dDense(input, Unpack(packed), shape))
        << FormatName(f);
    ++conv_formats;
  }
  EXPECT_EQ(conv_formats, 3);  // dense, vector-wise and Shfl-BW (§6.2)
}

// The mask the planner scores is the mask the engine packs: for every
// sparse format, the kept set of the packed weight retains exactly the
// ratio the QualityEvaluator reports on the same synthesized master.
TEST(PackWeight, PackedMaskIsThePlannedMask) {
  const int m = 64, k = 64, v = 8;
  const std::uint64_t seed = 29;
  SynthWeightOptions synth;
  synth.seed = seed;
  const Matrix<float> master = SynthesizeWeights(m, k, synth);
  const Matrix<float> scores = MagnitudeScores(master);
  quality::QualityEvaluator evaluator;
  for (Format f : AllFormats()) {
    if (f == Format::kDense) continue;
    const double density = TestDensity(f);
    const Matrix<float> kept =
        ExtractMask(Unpack(PackWeight(f, master, density, v)));
    EXPECT_DOUBLE_EQ(RetainedScoreRatio(scores, kept),
                     evaluator.RetainedRatio(m, k, seed, f, density, v))
        << FormatName(f);
  }
}

// 2:4 keeps two of every four weights, whatever density is asked for.
// Packing it under a 0.25 key used to store the 0.5 mask as a second,
// mislabelled entry; the table's 2:4 entry now rejects it by name.
TEST(PackWeight, Balanced24RejectsOtherDensities) {
  Rng rng(19);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  ExpectFixedDensityError(
      [&] { (void)PackWeight(Format::kBalanced24, master, 0.25, 8); });
  EXPECT_NO_THROW((void)PackWeight(Format::kBalanced24, master, 0.5, 8));
}

TEST(PackedWeightCache, Balanced24RejectsOtherDensitiesAndCachesNothing) {
  Rng rng(19);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;
  ExpectFixedDensityError(
      [&] { (void)cache.GetOrPack(0, Format::kBalanced24, master, 0.25, 8); });
  EXPECT_EQ(cache.TotalPacks(), 0u);
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_FALSE(cache.Contains(0, Format::kBalanced24, 0.25, 8));
  (void)cache.GetOrPack(0, Format::kBalanced24, master, 0.5, 8);
  EXPECT_EQ(cache.TotalPacks(), 1u);
}

TEST(PackWeight, DeterministicAcrossCalls) {
  Rng rng(13);
  const Matrix<float> master = rng.NormalMatrix(64, 64);
  const PackedWeight a = PackWeight(Format::kShflBw, master, 0.25, 8);
  const PackedWeight b = PackWeight(Format::kShflBw, master, 0.25, 8);
  EXPECT_EQ(a.shflbw.ToDense(), b.shflbw.ToDense());
  EXPECT_EQ(a.shflbw.storage_to_original, b.shflbw.storage_to_original);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
