#include "kernels/layernorm_fuse.h"

#include <cmath>

#include "common/check.h"
#include "common/fp16.h"
#include "common/hot_path.h"

namespace shflbw {
namespace {

void CheckParams(const Matrix<float>& x, const LayerNormParams& p) {
  SHFLBW_CHECK_MSG(
      static_cast<int>(p.gamma.size()) == x.cols() &&
          static_cast<int>(p.beta.size()) == x.cols(),
      "LayerNorm params sized " << p.gamma.size() << "/" << p.beta.size()
                                << " but features = " << x.cols());
  SHFLBW_CHECK_MSG(p.epsilon > 0.0f, "epsilon must be positive");
}

/// Normalizes one token row; emit(feature, value) stores the result.
template <typename Emit>
void NormalizeRow(const Matrix<float>& x, const LayerNormParams& p, int row,
                  Emit&& emit) {
  const int features = x.cols();
  const float* in = x.row(row);
  SHFLBW_HOT_BEGIN;
  double mean = 0.0;
  for (int f = 0; f < features; ++f) mean += in[f];
  mean /= features;
  double var = 0.0;
  for (int f = 0; f < features; ++f) {
    const double d = in[f] - mean;
    var += d * d;
  }
  var /= features;
  const float inv_std =
      1.0f / std::sqrt(static_cast<float>(var) + p.epsilon);
  for (int f = 0; f < features; ++f) {
    const float norm =
        (in[f] - static_cast<float>(mean)) * inv_std * p.gamma[f] +
        p.beta[f];
    // Output rounds through fp16, as the downstream kernel operand.
    emit(f, RoundToFp16(norm));
  }
  SHFLBW_HOT_END;
}

}  // namespace

Matrix<float> LayerNorm(const Matrix<float>& x, const LayerNormParams& p) {
  CheckParams(x, p);
  Matrix<float> out(x.rows(), x.cols());
  for (int t = 0; t < x.rows(); ++t) {
    NormalizeRow(x, p, t, [&](int f, float v) { out(t, f) = v; });
  }
  return out;
}

Matrix<float> LayerNormTransposed(const Matrix<float>& x,
                                  const LayerNormParams& p) {
  CheckParams(x, p);
  Matrix<float> out(x.cols(), x.rows());  // features x tokens
  for (int t = 0; t < x.rows(); ++t) {
    NormalizeRow(x, p, t, [&](int f, float v) { out(f, t) = v; });
  }
  return out;
}

KernelStats LayerNormFusedStats(int tokens, int features,
                                const GpuSpec& spec) {
  (void)spec;
  KernelStats s;
  s.kernel_name = "layernorm-transposed";
  s.kernel_class = KernelClass::kDenseCudaCore;  // elementwise, CUDA cores
  s.tensor_core = false;
  const double elems = static_cast<double>(tokens) * features;
  s.useful_flops = 8.0 * elems;  // mean, var, normalize, affine
  s.issued_macs = 4.0 * elems;
  s.dram_read_bytes = elems * kHalfBytes + 2.0 * features * 4.0;
  s.dram_write_bytes = elems * kHalfBytes;
  s.l2_read_bytes = s.dram_read_bytes;
  s.threadblocks = tokens;
  s.main_loop_iters = 1;
  return s;
}

KernelStats LayerNormThenTransposeStats(int tokens, int features,
                                        const GpuSpec& spec) {
  KernelStats s = LayerNormFusedStats(tokens, features, spec);
  s.kernel_name = "layernorm+standalone-transpose";
  // The separate transpose re-reads and re-writes the whole activation.
  const double elems = static_cast<double>(tokens) * features;
  s.dram_read_bytes += elems * kHalfBytes;
  s.dram_write_bytes += elems * kHalfBytes;
  s.l2_read_bytes += elems * kHalfBytes;
  s.num_kernel_launches = 2;
  return s;
}

}  // namespace shflbw
