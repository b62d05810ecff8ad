// A population of concurrent sensor sessions merged into one event stream.
//
// The serving fleet is sized for many sensors, not one: each deployed
// camera is a session with its own identity (the placement key), its own
// arrival process, and its own frame content. SessionStreamDriver models
// that population deterministically — session s renders through its own
// DriftingCameraSource seeded by (seed, s) and times its frames with its
// own ArrivalSchedule (the population cycles Poisson / bursty / diurnal, so
// a single driver exercises all three regimes at once) — and merges the
// per-session timelines into one stream ordered by absolute due time,
// which is exactly the open-loop offered load perfbench's binary-fleet
// workload replays.
//
// Determinism contract matches FrameSource: the same config yields the
// same events, pixel for pixel and gap for gap, on every run and after
// every reset(). The fleet tests lean on this to feed the identical frame
// sequence to a sharded fleet and to a single in-process reference, and to
// check bitwise-equal predictions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sensor/arrival_schedule.h"
#include "sensor/frame_source.h"

namespace scbnn::sensor {

struct SessionStreamConfig {
  long sessions = 16;
  long frames_per_session = 32;
  /// Mean per-session arrival rate; bursty sessions burst at 8x this.
  double rate_hz = 200.0;
  std::uint64_t seed = 1;

  /// sessions >= 1, frames_per_session >= 1, rate_hz > 0. Throws
  /// std::invalid_argument naming the field.
  const SessionStreamConfig& validate() const;
};

/// One frame due from one session.
struct SessionEvent {
  long session = 0;              ///< index in [0, sessions)
  std::uint64_t sensor_id = 0;   ///< stable per-session placement key
  double due_s = 0.0;            ///< absolute stream time of this frame
  Frame frame;
};

class SessionStreamDriver {
 public:
  explicit SessionStreamDriver(SessionStreamConfig config);

  /// Next event across all sessions in nondecreasing due_s; false when
  /// every session is exhausted.
  bool next(SessionEvent& out);

  void reset();

  [[nodiscard]] long total_events() const noexcept;

  /// The stable sensor id of session `session` under `seed` (exposed so
  /// tests can predict placement keys without driving the stream).
  [[nodiscard]] static std::uint64_t sensor_id_for(std::uint64_t seed,
                                                   long session);

  /// The arrival regime session `session` runs (sessions cycle through
  /// Poisson, bursty, diurnal in index order).
  [[nodiscard]] static ArrivalKind arrival_kind_for(long session);

 private:
  struct Session {
    std::unique_ptr<FrameSource> source;
    std::uint64_t sensor_id = 0;
    double clock_s = 0.0;  ///< due time of the pending frame
    Frame pending;
    bool live = false;
  };

  void prime(Session& session);

  SessionStreamConfig config_;
  std::vector<Session> sessions_;
};

}  // namespace scbnn::sensor
