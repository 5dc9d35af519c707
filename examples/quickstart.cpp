// Quickstart: prune a linear layer to Shfl-BW, run the sparse kernel,
// verify against the dense reference, and read the modelled GPU speedup.
// Exits 1 if the sparse kernel differs from the reference.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_quickstart
#include <cstdio>

#include "common/rng.h"
#include "core/sparse_linear.h"
#include "kernels/gemm_dense.h"

using namespace shflbw;

int main() {
  // A 1024x1024 weight matrix (e.g. an attention projection) and a
  // batch of 128 activation columns.
  Rng rng(1);
  const Matrix<float> weights = rng.NormalMatrix(1024, 1024);
  const Matrix<float> x = rng.NormalMatrix(1024, 128);

  // Prune to 75% sparsity with the Shfl-BW pattern, vector size 64.
  SparseLinear::Options opt;
  opt.format = runtime::Format::kShflBw;
  opt.density = 0.25;
  opt.v = 64;
  const SparseLinear layer(weights, opt);
  std::printf("pruned to %.1f%% density (target 25%%)\n",
              layer.AchievedDensity() * 100);

  // Execute the Shfl-BW tensor-core kernel (functional simulation).
  const Matrix<float> y = layer.Forward(x);

  // The sparse kernel is bit-identical to the dense reference on the
  // pruned weights (fp16 operands, fp32 accumulation).
  const Matrix<float> ref = GemmReference(layer.pruned_weights(), x);
  const double err = MaxAbsDiff(y, ref);
  std::printf("max |sparse - reference| = %g (expect 0)\n", err);

  // Modelled speedup over cuBLAS-style dense tensor-core GEMM.
  for (const GpuSpec& spec : AllGpus()) {
    const TimeBreakdown t = layer.ModelTime(x.cols(), spec);
    std::printf(
        "%-6s modelled %7.2f us (%s-bound), speedup over dense %5.2fx\n",
        spec.name.c_str(), t.total_s * 1e6, BoundName(t.bound),
        layer.SpeedupOverDense(x.cols(), spec));
  }
  return err == 0.0 ? 0 : 1;
}
