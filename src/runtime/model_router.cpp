#include "runtime/model_router.h"

#include <stdexcept>
#include <utility>

namespace scbnn::runtime {

ModelRouter::ModelRouter(ServerConfig default_config)
    : default_config_(default_config.validate()) {}

ModelRouter::~ModelRouter() { shutdown(); }

void ModelRouter::register_model(const std::string& id,
                                 std::shared_ptr<Servable> backend,
                                 ServerConfig config) {
  if (id.empty()) {
    throw std::invalid_argument("ModelRouter: model id must not be empty");
  }
  if (!backend) {
    throw std::invalid_argument("ModelRouter: null backend for '" + id + "'");
  }
  // Build the entry (validates config, spawns the batch former) before
  // taking the exclusive lock: traffic to other models only pauses for the
  // map insert, not for thread spawn — that is what keeps registration hot.
  auto entry = std::make_shared<Entry>();
  entry->backend = std::move(backend);
  entry->server = std::make_unique<Server>(*entry->backend, config);
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (shutdown_) {
      throw std::runtime_error("ModelRouter: router is shut down");
    }
    const auto [it, inserted] = models_.emplace(id, entry);
    (void)it;
    if (!inserted) {
      throw std::invalid_argument("ModelRouter: model '" + id +
                                  "' is already registered");
    }
  }
}

void ModelRouter::register_model(const std::string& id,
                                 std::shared_ptr<Servable> backend) {
  register_model(id, std::move(backend), default_config_);
}

std::shared_ptr<ModelRouter::Entry> ModelRouter::find(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = models_.find(id);
  if (it == models_.end()) {
    std::string known;
    for (const auto& [name, entry] : models_) {
      (void)entry;
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw std::out_of_range("ModelRouter: unknown model '" + id +
                            "' (registered: " +
                            (known.empty() ? "<none>" : known) + ")");
  }
  return it->second;
}

ServerStats ModelRouter::deregister_model(const std::string& id) {
  std::shared_ptr<Entry> entry;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    const auto it = models_.find(id);
    if (it == models_.end()) {
      throw std::out_of_range("ModelRouter: unknown model '" + id + "'");
    }
    entry = std::move(it->second);
    models_.erase(it);
  }
  // Drain outside the lock so other models' producers never stall behind
  // this model's backlog. A submit that grabbed the entry before the erase
  // either enqueued in time (and is drained here) or gets the server's
  // post-shutdown error — never a hang.
  entry->server->shutdown();
  return entry->server->stats();
}

std::future<Prediction> ModelRouter::submit(const std::string& id,
                                            const float* image) {
  return find(id)->server->submit(image);
}

std::vector<std::future<Prediction>> ModelRouter::submit_burst(
    const std::string& id, const float* images, int n) {
  return find(id)->server->submit_burst(images, n);
}

bool ModelRouter::contains(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return models_.find(id) != models_.end();
}

std::vector<std::string> ModelRouter::model_ids() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [name, entry] : models_) {
    (void)entry;
    ids.push_back(name);
  }
  return ids;
}

ServerStats ModelRouter::stats(const std::string& id) const {
  return find(id)->server->stats();
}

ExecutorStats ModelRouter::executor_stats(const std::string& id) const {
  return find(id)->server->executor_stats();
}

const Servable& ModelRouter::backend(const std::string& id) const {
  return *find(id)->backend;
}

std::size_t ModelRouter::queue_depth(const std::string& id) const {
  return find(id)->server->queue_depth();
}

void ModelRouter::register_metrics(obs::MetricsRegistry& registry) {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [id, entry] : models_) {
    // Aliasing handle: it points at the server but owns the whole entry, so
    // a scrape that overlaps a deregistration keeps the backend alive too
    // (the executor views call into it).
    Server::register_metrics(
        registry, id,
        std::shared_ptr<const Server>(entry, entry->server.get()));
  }
}

void ModelRouter::shutdown() {
  std::map<std::string, std::shared_ptr<Entry>> drained;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    shutdown_ = true;
    drained.swap(models_);
  }
  for (auto& [name, entry] : drained) {
    (void)name;
    entry->server->shutdown();
  }
}

}  // namespace scbnn::runtime
