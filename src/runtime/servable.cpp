#include "runtime/servable.h"

#include <stdexcept>
#include <string>

#include "hybrid/first_layer.h"

namespace scbnn::runtime {

double ms_between(ServeClock::time_point start, ServeClock::time_point end) {
  return std::chrono::duration<double>(end - start).count() * 1e3;
}

void ServeStats::set_timing(int n, unsigned thread_count,
                            double elapsed_ms) noexcept {
  images = n;
  threads = thread_count;
  latency_ms = elapsed_ms;
}

Servable::~Servable() = default;

void Servable::set_max_rung(int /*cap*/) noexcept {}

int Servable::max_rung() const noexcept { return 0; }

std::vector<Prediction> Servable::classify(const nn::Tensor& images) {
  check_image_batch(images, "Servable::classify");
  std::vector<Prediction> out(static_cast<std::size_t>(images.dim(0)));
  (void)classify(images.data(), images.dim(0), out.data());
  return out;
}

void check_image_batch(const nn::Tensor& images, const char* where) {
  if (images.rank() != 4 || images.dim(1) != 1 ||
      images.dim(2) != hybrid::kImageSize ||
      images.dim(3) != hybrid::kImageSize) {
    throw std::invalid_argument(std::string(where) +
                                ": expected [N,1,28,28], got " +
                                images.shape_string());
  }
}

}  // namespace scbnn::runtime
