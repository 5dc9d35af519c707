#include "runtime/model_desc.h"

#include "common/check.h"

namespace shflbw {
namespace runtime {

ConvShape ToConvShape(const ConvLayerSpec& l) {
  ConvShape s;
  s.batch = l.batch;
  s.in_c = l.in_c;
  s.in_h = l.in_h;
  s.in_w = l.in_w;
  s.out_c = l.out_c;
  s.kh = l.kh;
  s.kw = l.kw;
  s.stride = l.stride;
  s.pad = l.pad;
  return s;
}

ModelDesc ModelDesc::Transformer(const TransformerConfig& cfg) {
  const auto specs = TransformerLayers(cfg);
  const auto counts = TransformerLayerCounts(cfg);
  SHFLBW_CHECK(specs.size() == counts.size());
  ModelDesc m;
  m.name = "transformer";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    LayerDesc l;
    l.kind = LayerKind::kGemm;
    l.gemm = specs[i];
    l.repeat = counts[i];
    m.layers.push_back(std::move(l));
  }
  return m;
}

ModelDesc ModelDesc::Gnmt(const GnmtConfig& cfg) {
  const auto specs = GnmtLayers(cfg);
  const auto counts = GnmtLayerCounts(cfg);
  SHFLBW_CHECK(specs.size() == counts.size());
  ModelDesc m;
  m.name = "gnmt";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    LayerDesc l;
    l.kind = LayerKind::kGemm;
    l.gemm = specs[i];
    l.repeat = counts[i];
    m.layers.push_back(std::move(l));
  }
  return m;
}

ModelDesc ModelDesc::ResNet50(const ResNet50Config& cfg) {
  ModelDesc m;
  m.name = "resnet50";
  for (const ConvLayerSpec& spec : ResNet50Layers(cfg)) {
    LayerDesc l;
    l.kind = LayerKind::kConv;
    l.conv = spec;
    l.repeat = spec.repeat;
    l.conv.repeat = 1;  // occurrence count lives on LayerDesc
    m.layers.push_back(std::move(l));
  }
  return m;
}

}  // namespace runtime
}  // namespace shflbw
