// ResNet50 scenario: run a real Shfl-BW sparse convolution (implicit
// GEMM, §4.1) on one bottleneck 3x3 layer, verify numerics, and sweep
// the whole network's conv stack through the performance model. Exits 1
// if the sparse conv differs from the dense reference.
#include <cstdio>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/sparse_conv2d.h"

using namespace shflbw;

int main() {
  // conv4_x 3x3 layer (256->256 at 14x14), small batch for the
  // functional run.
  ConvShape shape;
  shape.batch = 2;
  shape.in_c = 256;
  shape.in_h = shape.in_w = 14;
  shape.out_c = 256;
  shape.kh = shape.kw = 3;
  shape.pad = 1;

  Rng rng(2);
  const Matrix<float> filters =
      rng.NormalMatrix(shape.out_c, shape.GemmK());
  Tensor4 input(shape.batch, shape.in_c, shape.in_h, shape.in_w);
  for (auto& v : input.data) v = static_cast<float>(rng.Normal());

  SparseConv2d::Options opt;
  opt.format = runtime::Format::kShflBw;
  opt.density = 0.25;
  opt.v = 32;
  const SparseConv2d conv(filters, shape, opt);

  const Matrix<float> y = conv.Forward(input);
  const Matrix<float> ref = Conv2dDense(input, conv.pruned_weights(), shape);
  const double err = MaxAbsDiff(y, ref);
  std::printf("conv4.3x3: output %dx%d, max |sparse-dense ref| = %g\n",
              y.rows(), y.cols(), err);
  for (const GpuSpec& spec : AllGpus()) {
    std::printf("%-6s conv speedup over cuDNN-dense: %5.2fx\n",
                spec.name.c_str(), conv.SpeedupOverDense(spec));
  }

  // Whole-network sweep (performance model, batch 32 as in Fig. 6).
  std::printf("\nResNet50 conv stack, Shfl-BW V=32:\n%-10s", "sparsity");
  for (const GpuSpec& spec : AllGpus()) {
    std::printf(" %9s", spec.name.c_str());
  }
  std::printf("\n");
  for (double sparsity : {0.50, 0.75, 0.85, 0.95}) {
    std::printf("%8.0f%% ", sparsity * 100);
    for (const GpuSpec& spec : AllGpus()) {
      const auto r = EvaluateModel(runtime::ModelDesc::ResNet50(),
                                   runtime::Format::kShflBw, 1.0 - sparsity,
                                   32, spec.arch);
      std::printf(" %8.2fx", r->speedup);
    }
    std::printf("\n");
  }
  return err == 0.0 ? 0 : 1;
}
