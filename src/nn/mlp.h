// A small MLP classifier — the trainable proxy model for the Table 1
// quality experiments (see docs/REPRODUCTION.md §3: prune each pattern,
// fine-tune, compare real accuracy).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"

namespace shflbw {
namespace nn {

class Mlp {
 public:
  /// dims = {input, hidden..., classes}; ReLU between linear layers.
  Mlp(const std::vector<int>& dims, std::uint64_t seed = 7);

  Matrix<float> Forward(const Matrix<float>& x);
  /// Backward from dL/dlogits (accumulates all layer gradients).
  void Backward(const Matrix<float>& dlogits);

  std::vector<Linear*> Layers();
  /// Hidden layers only (the ones worth pruning; the tiny output head is
  /// excluded, as papers exclude final classifiers).
  std::vector<Linear*> PrunableLayers();

 private:
  std::vector<std::unique_ptr<Linear>> linears_;
  std::vector<ReLU> relus_;
};

}  // namespace nn
}  // namespace shflbw
