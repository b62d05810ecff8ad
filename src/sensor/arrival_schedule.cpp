#include "sensor/arrival_schedule.h"

#include <cmath>
#include <stdexcept>

namespace scbnn::sensor {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

std::string to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kUniform: return "uniform";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "unknown";
}

const ArrivalConfig& ArrivalConfig::validate() const {
  if (!(rate_hz > 0.0)) {
    throw std::invalid_argument("ArrivalConfig: rate_hz must be > 0");
  }
  if (burst_len < 1) {
    throw std::invalid_argument("ArrivalConfig: burst_len must be >= 1");
  }
  if (burst_rate_hz < 0.0) {
    throw std::invalid_argument("ArrivalConfig: burst_rate_hz must be >= 0");
  }
  if (kind == ArrivalKind::kBursty && burst_rate_hz > 0.0 &&
      burst_rate_hz <= rate_hz) {
    // A "burst" slower than the long-run mean would need negative idle
    // time to average out.
    throw std::invalid_argument(
        "ArrivalConfig: burst_rate_hz must exceed rate_hz");
  }
  if (swing < 0.0 || swing >= 1.0) {
    throw std::invalid_argument("ArrivalConfig: swing must be in [0, 1)");
  }
  if (period_frames < 1) {
    throw std::invalid_argument("ArrivalConfig: period_frames must be >= 1");
  }
  return *this;
}

ArrivalSchedule::ArrivalSchedule(ArrivalConfig config, std::uint64_t seed)
    : config_(config.validate()), seed_(seed), rng_(detail::mix_seed(seed)) {}

void ArrivalSchedule::reset() {
  rng_.seed(detail::mix_seed(seed_));
  index_ = 0;
  burst_left_ = 0;
}

double ArrivalSchedule::next_gap_s() {
  const double mean_gap = 1.0 / config_.rate_hz;
  double gap = mean_gap;
  switch (config_.kind) {
    case ArrivalKind::kUniform:
      break;
    case ArrivalKind::kPoisson: {
      std::exponential_distribution<double> d(config_.rate_hz);
      gap = d(rng_);
      break;
    }
    case ArrivalKind::kBursty: {
      const double burst_rate = config_.burst_rate_hz > 0.0
                                    ? config_.burst_rate_hz
                                    : 4.0 * config_.rate_hz;
      if (burst_left_ == 0) {
        // Idle gap before the next burst, sized so the long-run mean rate
        // stays rate_hz: a cycle of burst_len frames must span
        // burst_len/rate_hz on average, and it consists of this idle gap
        // plus the burst_len - 1 burst gaps drawn below (the idle gap
        // stands in for the first frame's gap).
        const double idle_mean =
            config_.burst_len * mean_gap -
            (config_.burst_len - 1) / burst_rate;
        std::exponential_distribution<double> d(1.0 / idle_mean);
        gap = d(rng_);
        burst_left_ = config_.burst_len;
      } else {
        std::exponential_distribution<double> d(burst_rate);
        gap = d(rng_);
      }
      --burst_left_;
      break;
    }
    case ArrivalKind::kDiurnal: {
      const double phase =
          kTwoPi * static_cast<double>(index_ % config_.period_frames) /
          static_cast<double>(config_.period_frames);
      const double rate =
          config_.rate_hz * (1.0 + config_.swing * std::sin(phase));
      std::exponential_distribution<double> d(rate);
      gap = d(rng_);
      break;
    }
  }
  ++index_;
  return gap;
}

}  // namespace scbnn::sensor
