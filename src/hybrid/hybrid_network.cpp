#include "hybrid/hybrid_network.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/maxpool.h"
#include "nn/optimizer.h"

namespace scbnn::hybrid {

namespace {

/// The base model's layers, or with `head` false only its tail (from the
/// first pool on). With an `rng` the conv and dense layers draw their
/// initial weights from it in layer order; without one they start at zero.
template <typename... Init>
nn::Network lenet_layers(const LeNetConfig& cfg, bool head, Init&... rng) {
  nn::Network net;
  if (head) {
    net.add<nn::Conv2D>(1, cfg.conv1_kernels, kKernelSize, kPad, rng...);
    net.add<nn::ReLU>();
  }
  net.add<nn::MaxPool2>();
  net.add<nn::Conv2D>(cfg.conv1_kernels, cfg.conv2_kernels, kKernelSize, 0,
                      rng...);
  net.add<nn::ReLU>();
  net.add<nn::MaxPool2>();
  const int flat = cfg.conv2_kernels * 5 * 5;  // 14x14 -> 10x10 -> 5x5
  net.add<nn::Dense>(flat, cfg.dense_units, rng...);
  net.add<nn::ReLU>();
  net.add<nn::Dropout>(cfg.dropout);
  net.add<nn::Dense>(cfg.dense_units, 10, rng...);
  return net;
}

}  // namespace

nn::Network build_lenet(const LeNetConfig& cfg, nn::Rng& rng) {
  return lenet_layers(cfg, true, rng);
}

nn::Network build_lenet(const LeNetConfig& cfg) {
  return lenet_layers(cfg, true);
}

nn::Network build_tail(const LeNetConfig& cfg, nn::Rng& rng) {
  return lenet_layers(cfg, false, rng);
}

nn::Network build_tail(const LeNetConfig& cfg) {
  return lenet_layers(cfg, false);
}

void copy_tail_params(nn::Network& base, nn::Network& tail) {
  const auto bp = base.params();
  const auto tp = tail.params();
  // The base model's first two params (conv1 w, b) have no counterpart.
  if (bp.size() != tp.size() + 2) {
    throw std::invalid_argument("copy_tail_params: structure mismatch");
  }
  for (std::size_t i = 0; i < tp.size(); ++i) {
    const nn::Tensor& src = *bp[i + 2].value;
    nn::Tensor& dst = *tp[i].value;
    if (src.shape() != dst.shape()) {
      throw std::invalid_argument("copy_tail_params: shape mismatch at " +
                                  tp[i].name);
    }
    std::copy(src.data(), src.data() + src.size(), dst.data());
  }
}

const nn::Tensor& base_conv1_weights(nn::Network& base) {
  auto* conv1 = dynamic_cast<nn::Conv2D*>(&base.layer(0));
  if (conv1 == nullptr) {
    throw std::invalid_argument("base_conv1_weights: layer 0 is not Conv2D");
  }
  return conv1->weights();
}

HybridNetwork::HybridNetwork(std::unique_ptr<FirstLayerEngine> first_layer,
                             nn::Network tail,
                             runtime::RuntimeConfig runtime_config)
    : pipeline_(std::move(first_layer), std::move(tail),
                std::move(runtime_config)) {}

nn::Tensor HybridNetwork::features(const nn::Tensor& images) {
  return pipeline_.features(images);
}

std::vector<nn::EpochStats> HybridNetwork::retrain(
    const nn::Tensor& train_features, std::span<const int> labels,
    const nn::TrainConfig& config, float lr) {
  nn::Adam opt(lr);
  return nn::fit(tail(), opt, train_features, labels, config);
}

double HybridNetwork::evaluate(const nn::Tensor& test_features,
                               std::span<const int> labels) {
  return nn::evaluate_accuracy(tail(), test_features, labels);
}

std::vector<int> HybridNetwork::predict(const nn::Tensor& images) {
  return tail().predict(features(images));
}

std::vector<runtime::Prediction> HybridNetwork::classify(
    const nn::Tensor& images) {
  return pipeline_.Servable::classify(images);
}

}  // namespace scbnn::hybrid
