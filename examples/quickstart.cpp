// Quickstart: prune a linear layer to Shfl-BW, run the sparse kernel,
// verify against the dense reference, and read the modelled GPU speedup.
// Exits 1 if the sparse kernel differs from the reference.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_quickstart
#include <cstdio>

#include "common/rng.h"
#include "kernels/gemm_dense.h"
#include "runtime/planner.h"
#include "runtime/weight_cache.h"

using namespace shflbw;
using namespace shflbw::runtime;

int main() {
  // A 1024x1024 weight matrix (e.g. an attention projection) and a
  // batch of 128 activation columns.
  Rng rng(1);
  const Matrix<float> weights = rng.NormalMatrix(1024, 1024);
  const Matrix<float> x = rng.NormalMatrix(1024, 128);

  // Prune to 75% sparsity with the Shfl-BW pattern, vector size 64, and
  // pack it: the runtime's offline step (Fig. 4 (a)).
  constexpr Format kFormat = Format::kShflBw;
  constexpr double kDensity = 0.25;
  constexpr int kV = 64;
  const PackedWeight packed = PackWeight(kFormat, weights, kDensity, kV);
  const Matrix<float> pruned = packed.shflbw.ToDense();
  std::printf("pruned to %.1f%% density (target 25%%)\n",
              (1.0 - Sparsity(pruned)) * 100);

  // Execute the Shfl-BW tensor-core kernel (functional simulation).
  const Matrix<float> y = Ops(kFormat).gemm(packed, x);

  // The sparse kernel is bit-identical to the dense reference on the
  // pruned weights (fp16 operands, fp32 accumulation).
  const double err = MaxAbsDiff(y, GemmReference(pruned, x));
  std::printf("max |sparse - reference| = %g (expect 0)\n", err);

  // Modelled speedup over cuBLAS-style dense tensor-core GEMM: the
  // planner's model of this layer on each GPU.
  LayerDesc layer;
  layer.gemm = {"fc", weights.rows(), x.cols(), weights.cols()};
  for (const GpuSpec& spec : AllGpus()) {
    PlannerOptions opts;
    opts.density = kDensity;
    opts.v = kV;
    opts.arch = spec.arch;
    const double sparse_s = *ModeledLayerSeconds(layer, kFormat, opts);
    const double dense_s = *ModeledLayerSeconds(layer, Format::kDense, opts);
    std::printf("%-6s modelled %7.2f us, speedup over dense %5.2fx\n",
                spec.name.c_str(), sparse_s * 1e6, dense_s / sparse_s);
  }
  return err == 0.0 ? 0 : 1;
}
