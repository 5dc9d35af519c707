// ResNet50 scenario: run a real Shfl-BW sparse convolution (implicit
// GEMM, §4.1) on one bottleneck 3x3 layer, verify numerics, and sweep
// the whole network's conv stack through the performance model. Exits 1
// if the sparse conv differs from the dense reference.
#include <cstdio>

#include "common/rng.h"
#include "runtime/planner.h"
#include "runtime/weight_cache.h"

using namespace shflbw;
using namespace shflbw::runtime;

int main() {
  // conv4_x 3x3 layer (256->256 at 14x14), small batch for the
  // functional run.
  LayerDesc layer;
  layer.kind = LayerKind::kConv;
  layer.conv.name = "conv4.3x3";
  layer.conv.batch = 2;
  layer.conv.in_c = 256;
  layer.conv.in_h = layer.conv.in_w = 14;
  layer.conv.out_c = 256;
  layer.conv.kh = layer.conv.kw = 3;
  layer.conv.pad = 1;
  const ConvShape shape = ToConvShape(layer.conv);

  Rng rng(2);
  const Matrix<float> filters =
      rng.NormalMatrix(shape.out_c, shape.GemmK());
  Tensor4 input(shape.batch, shape.in_c, shape.in_h, shape.in_w);
  for (auto& v : input.data) v = static_cast<float>(rng.Normal());

  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 32;
  const PackedWeight packed =
      PackWeight(Format::kShflBw, filters, opts.density, opts.v);

  const Matrix<float> y = Ops(Format::kShflBw).conv(packed, shape, input);
  const Matrix<float> ref =
      Conv2dDense(input, packed.shflbw.ToDense(), shape);
  const double err = MaxAbsDiff(y, ref);
  std::printf("conv4.3x3: output %dx%d, max |sparse-dense ref| = %g\n",
              y.rows(), y.cols(), err);
  for (const GpuSpec& spec : AllGpus()) {
    opts.arch = spec.arch;
    std::printf("%-6s conv speedup over cuDNN-dense: %5.2fx\n",
                spec.name.c_str(),
                *ModeledLayerSeconds(layer, Format::kDense, opts) /
                    *ModeledLayerSeconds(layer, Format::kShflBw, opts));
  }

  // Whole-network sweep (performance model, batch 32 as in Fig. 6): a
  // plan that pins every layer to Shfl-BW.
  std::printf("\nResNet50 conv stack, Shfl-BW V=32:\n%-10s", "sparsity");
  for (const GpuSpec& spec : AllGpus()) {
    std::printf(" %9s", spec.name.c_str());
  }
  std::printf("\n");
  PlannerOptions pinned;
  pinned.force_format = Format::kShflBw;
  pinned.v = 32;
  for (double sparsity : {0.50, 0.75, 0.85, 0.95}) {
    std::printf("%8.0f%% ", sparsity * 100);
    pinned.density = 1.0 - sparsity;
    for (const GpuSpec& spec : AllGpus()) {
      pinned.arch = spec.arch;
      const ExecutionPlan plan = PlanModel(ModelDesc::ResNet50(), pinned);
      std::printf(" %8.2fx",
                  plan.ModeledDenseSeconds() / plan.ModeledTotalSeconds());
    }
    std::printf("\n");
  }
  return err == 0.0 ? 0 : 1;
}
