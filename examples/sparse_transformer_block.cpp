// A full Transformer encoder block with every linear layer pruned to
// Shfl-BW: multi-head self-attention (sparse Q/K/V/output projections +
// dense softmax(QK^T)V, which stays dense in the paper too) and the
// FFN through the SparseModel API, with the §4.3 LayerNorm-fused
// transposition feeding the sparse kernels. Shows a realistic
// deployment flow: build once (prune + compress + save), then serve.
// Exits 1 if the saved weights do not reload byte-exactly.
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "core/sparse_model.h"
#include "format/serialize.h"
#include "kernels/layernorm_fuse.h"
#include "prune/shfl_bw_search.h"

using namespace shflbw;

namespace {

/// Multi-head self-attention over feature-major-transposed activations
/// (x is dim x tokens). The four projections are Shfl-BW sparse; the
/// attention matmuls are activation-activation products and remain
/// dense (no weights to prune — same as the paper, which prunes only
/// weight GEMMs).
Matrix<float> SelfAttention(const Matrix<float>& x, const SparseLinear& wq,
                            const SparseLinear& wk, const SparseLinear& wv,
                            const SparseLinear& wo, int heads) {
  const int dim = x.rows();
  const int tokens = x.cols();
  const int hd = dim / heads;
  const Matrix<float> q = wq.Forward(x);  // dim x tokens
  const Matrix<float> k = wk.Forward(x);
  const Matrix<float> v = wv.Forward(x);

  Matrix<float> context(dim, tokens);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  for (int h = 0; h < heads; ++h) {
    const int base = h * hd;
    for (int ti = 0; ti < tokens; ++ti) {
      // scores over all source tokens, softmaxed.
      std::vector<float> scores(static_cast<std::size_t>(tokens));
      float maxv = -1e30f;
      for (int tj = 0; tj < tokens; ++tj) {
        float dot = 0;
        for (int d = 0; d < hd; ++d) {
          dot += q(base + d, ti) * k(base + d, tj);
        }
        scores[tj] = dot * scale;
        maxv = std::max(maxv, scores[tj]);
      }
      float denom = 0;
      for (float& s : scores) {
        s = std::exp(s - maxv);
        denom += s;
      }
      for (int d = 0; d < hd; ++d) {
        float acc = 0;
        for (int tj = 0; tj < tokens; ++tj) {
          acc += scores[tj] / denom * v(base + d, tj);
        }
        context(base + d, ti) = acc;
      }
    }
  }
  return wo.Forward(context);
}

}  // namespace

int main() {
  constexpr int kDim = 512;
  constexpr int kFf = 2048;
  constexpr int kTokens = 256;
  Rng rng(4);

  // ---- Build phase: prune + compress the FFN of one encoder block.
  SparseLinear::Options opt;
  opt.format = runtime::Format::kShflBw;
  opt.density = 0.25;
  opt.v = 64;

  SparseModel ffn;
  ffn.AddLayer("ffn.fc1", rng.NormalMatrix(kFf, kDim), opt,
               Activation::kRelu);
  ffn.AddLayer("ffn.fc2", rng.NormalMatrix(kDim, kFf), opt,
               Activation::kNone);
  std::printf("FFN compressed: %.2f MB (dense: %.2f MB, %.1fx smaller)\n",
              ffn.CompressedBytes() / 1e6, ffn.DenseBytes() / 1e6,
              ffn.DenseBytes() / ffn.CompressedBytes());

  // The compressed weights can be stored and reloaded byte-exactly —
  // what a serving system does after offline pruning.
  const ShflBwMatrix fc1 = PruneToShflBw(rng.NormalMatrix(kFf, kDim),
                                         opt.density, opt.v);
  SaveShflBw(fc1, "/tmp/shflbw_fc1.bin");
  const ShflBwMatrix reloaded = LoadShflBw("/tmp/shflbw_fc1.bin");
  const bool round_trip = reloaded.ToDense() == fc1.ToDense();
  std::printf("serialize round-trip: %s\n",
              round_trip ? "exact" : "MISMATCH");

  // ---- Attention projections, also Shfl-BW at 75%.
  const SparseLinear wq(rng.NormalMatrix(kDim, kDim), opt);
  const SparseLinear wk(rng.NormalMatrix(kDim, kDim), opt);
  const SparseLinear wv(rng.NormalMatrix(kDim, kDim), opt);
  const SparseLinear wo(rng.NormalMatrix(kDim, kDim), opt);

  // ---- Serve phase: LayerNorm (feature-major residual stream) fused
  // with the transpose into the batch-innermost kernel layout, then
  // attention -> FFN.
  const Matrix<float> residual = rng.NormalMatrix(kTokens, kDim);
  LayerNormParams ln;
  ln.gamma.assign(kDim, 1.0f);
  ln.beta.assign(kDim, 0.0f);
  const Matrix<float> x = LayerNormTransposed(residual, ln);  // dim x tok
  const Matrix<float> attn = SelfAttention(x, wq, wk, wv, wo, /*heads=*/8);
  const Matrix<float> y = ffn.Forward(attn);
  std::printf("block output: %dx%d\n", y.rows(), y.cols());

  // ---- What did sparsity buy across the block's weight GEMMs?
  for (const GpuSpec& spec : AllGpus()) {
    const double proj_sparse = 4 * wq.ModelTime(kTokens, spec).total_s;
    const double ffn_sparse = ffn.ModelSeconds(kTokens, spec);
    const double proj_dense =
        proj_sparse * wq.SpeedupOverDense(kTokens, spec);
    const double ffn_dense =
        ffn_sparse * ffn.SpeedupOverDense(kTokens, spec);
    std::printf(
        "%-6s block weight-GEMMs modelled %7.2f us, speedup %5.2fx\n",
        spec.name.c_str(), (proj_sparse + ffn_sparse) * 1e6,
        (proj_dense + ffn_dense) / (proj_sparse + ffn_sparse));
  }
  return round_trip ? 0 : 1;
}
