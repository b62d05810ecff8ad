#include "runtime/backend_registry.h"

#include <stdexcept>

#include "hybrid/binary_first_layer.h"
#include "hybrid/sc_first_layer.h"
#include "hybrid/sc_first_layer_fast.h"

namespace scbnn::runtime {

BackendRegistry::BackendRegistry() {
  using hybrid::FastStochasticFirstLayer;
  using hybrid::StochasticFirstLayer;
  factories_["binary-quantized"] =
      [](const nn::QuantizedConvWeights& w, const hybrid::FirstLayerConfig& c) {
        return std::make_unique<hybrid::BinaryFirstLayer>(w, c);
      };
  factories_["sc-proposed"] =
      [](const nn::QuantizedConvWeights& w, const hybrid::FirstLayerConfig& c) {
        return std::make_unique<StochasticFirstLayer>(
            StochasticFirstLayer::Style::kProposed, w, c);
      };
  factories_["sc-conventional"] =
      [](const nn::QuantizedConvWeights& w, const hybrid::FirstLayerConfig& c) {
        return std::make_unique<StochasticFirstLayer>(
            StochasticFirstLayer::Style::kConventional, w, c);
      };
  // Count-domain fast paths: bit-identical to the reference engines above
  // (asserted by the serving bench and the first-layer tests), computed
  // from the adder trees' exact closed forms on stream counts.
  factories_["sc-proposed-fast"] =
      [](const nn::QuantizedConvWeights& w, const hybrid::FirstLayerConfig& c) {
        return std::make_unique<FastStochasticFirstLayer>(
            FastStochasticFirstLayer::Style::kProposed, w, c);
      };
  factories_["sc-conventional-fast"] =
      [](const nn::QuantizedConvWeights& w, const hybrid::FirstLayerConfig& c) {
        return std::make_unique<FastStochasticFirstLayer>(
            FastStochasticFirstLayer::Style::kConventional, w, c);
      };
}

const BackendRegistry& BackendRegistry::instance() {
  static const BackendRegistry registry;
  return registry;
}

std::unique_ptr<hybrid::FirstLayerEngine> BackendRegistry::create(
    const std::string& name, const nn::QuantizedConvWeights& weights,
    const hybrid::FirstLayerConfig& config) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [key, unused] : factories_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::out_of_range("BackendRegistry: unknown backend '" + name +
                            "' (known: " + known + ")");
  }
  return it->second(weights, config);
}

bool BackendRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, unused] : factories_) out.push_back(key);
  return out;  // std::map iterates sorted
}

}  // namespace scbnn::runtime
