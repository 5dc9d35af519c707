// Whole-model layer lists for the runtime: a uniform wrapper over the
// GEMM (Transformer, GNMT) and convolution (ResNet50) layer specs of
// src/model/, with occurrence counts carried per layer. The engine
// executes each distinct layer once per Run and weights aggregates by
// `repeat`, exactly the Fig. 6 accounting ("sum of compute-intensive
// layers", §6.1).
#pragma once

#include <string>
#include <vector>

#include "kernels/conv2d.h"
#include "model/gnmt.h"
#include "model/layer_spec.h"
#include "model/resnet50.h"
#include "model/transformer.h"

namespace shflbw {
namespace runtime {

enum class LayerKind { kGemm, kConv };

/// One compute-intensive layer. For kGemm only `gemm` is meaningful;
/// for kConv only `conv` (with conv.repeat folded out into `repeat`).
struct LayerDesc {
  LayerKind kind = LayerKind::kGemm;
  GemmLayerSpec gemm;
  ConvLayerSpec conv;
  int repeat = 1;  // occurrences of this shape in the full model

  [[nodiscard]] const std::string& Name() const {
    return kind == LayerKind::kGemm ? gemm.name : conv.name;
  }
  /// Layer dims viewed as the (implicit) GEMM C[m x n] = W[m x k] * X.
  [[nodiscard]] int GemmM() const {
    return kind == LayerKind::kGemm ? gemm.m : conv.GemmM();
  }
  [[nodiscard]] int GemmN() const {
    return kind == LayerKind::kGemm ? gemm.n : conv.GemmN();
  }
  [[nodiscard]] int GemmK() const {
    return kind == LayerKind::kGemm ? gemm.k : conv.GemmK();
  }
};

/// View of a conv layer spec as the kernel-facing ConvShape (repeat is
/// not part of the shape).
ConvShape ToConvShape(const ConvLayerSpec& l);

/// A model = named ordered layer list. Layers execute in order; the
/// engine streams each layer's output into the next layer's input.
struct ModelDesc {
  std::string name;
  std::vector<LayerDesc> layers;

  static ModelDesc Transformer(const TransformerConfig& cfg = {});
  static ModelDesc Gnmt(const GnmtConfig& cfg = {});
  static ModelDesc ResNet50(const ResNet50Config& cfg = {});
};

}  // namespace runtime
}  // namespace shflbw
