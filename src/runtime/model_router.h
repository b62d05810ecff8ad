// Multi-model front end: one serving endpoint, many models.
//
// A ModelRouter turns the single-backend Server into a fleet: every
// registered model gets its own admission queue and dynamic batch former (a
// private Server), requests carry a model id and are routed to that model's
// queue, and stats are tracked per model. Registration is hot — a newly
// loaded bundle can be instantiated and registered while traffic flows to
// the other models, and deregistration drains the departing model's queue
// without touching anyone else's.
//
// Compute is meant to be shared: instantiate every model's Servable with
// the same RuntimeConfig::executor so N models multiplex one executor
// instead of spawning N pools that oversubscribe the machine. The router
// itself adds only one lightweight batch-former thread per model.
//
// Thread safety: submit/stats/contains take a shared lock (concurrent
// producers never serialize against each other), register/deregister take
// an exclusive lock only for the map mutation — Server construction and
// drain happen outside it.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/servable.h"
#include "runtime/server.h"

namespace scbnn::runtime {

class ModelRouter {
 public:
  /// `default_config` is used by the register_model overload that does not
  /// pass a per-model ServerConfig.
  explicit ModelRouter(ServerConfig default_config = {});

  /// Graceful: equivalent to shutdown().
  ~ModelRouter();

  ModelRouter(const ModelRouter&) = delete;
  ModelRouter& operator=(const ModelRouter&) = delete;

  /// Register `backend` under `id` and start serving it immediately. The
  /// router shares ownership of the backend (keep a copy of the shared_ptr
  /// for direct access; a unique_ptr from instantiate_servable converts).
  /// Throws std::invalid_argument on an empty or already-taken id, and
  /// std::runtime_error after shutdown.
  void register_model(const std::string& id, std::shared_ptr<Servable> backend,
                      ServerConfig config);
  void register_model(const std::string& id,
                      std::shared_ptr<Servable> backend);

  /// Stop admissions for `id`, drain its queued requests through its
  /// backend (resolving every outstanding future), remove it from the
  /// router, and return its final stats. Other models keep serving
  /// throughout. Throws std::out_of_range for an unknown id.
  ServerStats deregister_model(const std::string& id);

  /// Route one 28x28 frame (copied) to model `id`. Same contract as
  /// Server::submit: throws QueueFullError when that model's queue is at
  /// capacity, std::out_of_range for an unknown id.
  [[nodiscard]] std::future<Prediction> submit(const std::string& id,
                                               const float* image);

  /// All-or-nothing burst admission to model `id`.
  [[nodiscard]] std::vector<std::future<Prediction>> submit_burst(
      const std::string& id, const float* images, int n);

  [[nodiscard]] bool contains(const std::string& id) const;
  /// Registered model ids, sorted.
  [[nodiscard]] std::vector<std::string> model_ids() const;
  /// Lifetime stats of model `id` (throws std::out_of_range when unknown).
  [[nodiscard]] ServerStats stats(const std::string& id) const;
  /// Compute-executor counters of model `id`'s backend (throws
  /// std::out_of_range when unknown). Models registered on one shared
  /// executor all report the same fleet-wide snapshot — chunks, steals
  /// and parks across every model's fan-outs.
  [[nodiscard]] ExecutorStats executor_stats(const std::string& id) const;
  /// The registered backend (throws std::out_of_range when unknown).
  [[nodiscard]] const Servable& backend(const std::string& id) const;
  /// Requests waiting in model `id`'s admission queue right now — the
  /// queue-depth signal overload monitoring watches.
  [[nodiscard]] std::size_t queue_depth(const std::string& id) const;

  /// Register registry views for every currently-registered model: the
  /// same scbnn_server_*/scbnn_executor_* series a bare Server exports,
  /// labeled model=<id>. Callbacks hold weak handles to each model's
  /// entry: a scrape keeps the model's server and backend alive until it
  /// returns, and a model deregistered later exports zeros.
  void register_metrics(obs::MetricsRegistry& registry);

  /// Drain and remove every model. Idempotent; after shutdown every
  /// submit/register throws.
  void shutdown();

 private:
  struct Entry {
    std::shared_ptr<Servable> backend;
    std::unique_ptr<Server> server;
  };

  /// Shared-lock lookup; throws std::out_of_range listing known ids.
  [[nodiscard]] std::shared_ptr<Entry> find(const std::string& id) const;

  ServerConfig default_config_;
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> models_;
  bool shutdown_ = false;
};

}  // namespace scbnn::runtime
