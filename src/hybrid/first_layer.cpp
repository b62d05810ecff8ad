#include "hybrid/first_layer.h"

#include <stdexcept>

#include "runtime/backend_registry.h"

namespace scbnn::hybrid {

FirstLayerEngine::Scratch::~Scratch() = default;

FirstLayerEngine::~FirstLayerEngine() = default;

std::unique_ptr<FirstLayerEngine::Scratch> FirstLayerEngine::make_scratch()
    const {
  return std::make_unique<Scratch>();
}

nn::Tensor FirstLayerEngine::compute_batch(const nn::Tensor& images) const {
  if (images.rank() != 4 || images.dim(1) != 1 ||
      images.dim(2) != kImageSize || images.dim(3) != kImageSize) {
    throw std::invalid_argument("compute_batch: expected [N,1,28,28], got " +
                                images.shape_string());
  }
  const int n = images.dim(0);
  nn::Tensor out({n, kernels(), kImageSize, kImageSize});
  const auto scratch = make_scratch();
  constexpr std::size_t kPixels = kImageSize * kImageSize;
  const std::size_t out_stride =
      static_cast<std::size_t>(kernels()) * kOutputsPerKernel;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    compute(images.data() + i * kPixels, out.data() + i * out_stride,
            *scratch);
  }
  return out;
}

std::string to_string(FirstLayerDesign d) {
  switch (d) {
    case FirstLayerDesign::kBinaryQuantized: return "Binary";
    case FirstLayerDesign::kScProposed: return "This Work";
    case FirstLayerDesign::kScConventional: return "Old SC";
  }
  return "?";
}

std::string backend_name(FirstLayerDesign d) {
  switch (d) {
    case FirstLayerDesign::kBinaryQuantized: return "binary-quantized";
    case FirstLayerDesign::kScProposed: return "sc-proposed";
    case FirstLayerDesign::kScConventional: return "sc-conventional";
  }
  throw std::invalid_argument("backend_name: unknown design");
}

FirstLayerDesign design_from_backend(const std::string& name) {
  for (FirstLayerDesign d :
       {FirstLayerDesign::kBinaryQuantized, FirstLayerDesign::kScProposed,
        FirstLayerDesign::kScConventional}) {
    if (backend_name(d) == name) return d;
  }
  throw std::invalid_argument(
      "design_from_backend: unknown backend '" + name +
      "' (valid: binary-quantized, sc-proposed, sc-conventional)");
}

std::unique_ptr<FirstLayerEngine> make_first_layer_engine(
    FirstLayerDesign design, const nn::QuantizedConvWeights& weights,
    const FirstLayerConfig& config) {
  return runtime::BackendRegistry::instance().create(backend_name(design),
                                                     weights, config);
}

}  // namespace scbnn::hybrid
