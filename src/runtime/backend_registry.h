// String-keyed factory table for first-layer backends.
//
// The paper's designs (and their count-domain fast paths) are the fixed set
// of entries, filled once at construction; a new design (an alternate SNG,
// a different adder tree, an accelerator offload) is one more entry in the
// constructor. Lookup is by the same names the engines report from
// FirstLayerEngine::name().
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hybrid/first_layer.h"

namespace scbnn::runtime {

using BackendFactory = std::function<std::unique_ptr<hybrid::FirstLayerEngine>(
    const nn::QuantizedConvWeights& weights,
    const hybrid::FirstLayerConfig& config)>;

class BackendRegistry {
 public:
  /// Process-wide registry. Immutable after construction, so lookups from
  /// any thread need no lock.
  [[nodiscard]] static const BackendRegistry& instance();

  /// Instantiate a backend. Throws std::out_of_range listing the known
  /// names when `name` is not registered.
  [[nodiscard]] std::unique_ptr<hybrid::FirstLayerEngine> create(
      const std::string& name, const nn::QuantizedConvWeights& weights,
      const hybrid::FirstLayerConfig& config) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Registered backend names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  BackendRegistry();  // fills the table with the built-in designs

  std::map<std::string, BackendFactory> factories_;
};

}  // namespace scbnn::runtime
