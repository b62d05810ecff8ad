#include "runtime/server.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "hybrid/first_layer.h"
#include "obs/trace.h"

namespace scbnn::runtime {

namespace {

constexpr std::size_t kPixels =
    static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;

// Server-minted trace ids: one process-wide counter shared by all Servers
// (ids are only used for span correlation, so sharing the space is fine).
std::atomic<std::uint64_t> g_next_trace_id{1};

}  // namespace

const ServerConfig& ServerConfig::validate() const {
  if (max_batch < 1) {
    throw std::invalid_argument("ServerConfig: max_batch must be >= 1, got " +
                                std::to_string(max_batch));
  }
  if (max_delay_us < 0 || max_delay_us > kMaxDelayUs) {
    throw std::invalid_argument(
        "ServerConfig: max_delay_us must be in [0, " +
        std::to_string(kMaxDelayUs) + "], got " +
        std::to_string(max_delay_us));
  }
  if (queue_capacity < 1) {
    throw std::invalid_argument("ServerConfig: queue_capacity must be >= 1");
  }
  // A batch larger than the queue could never fill, so the size trigger
  // would be dead and every dispatch would wait out max_delay_us — worst
  // exactly when the server is saturated.
  if (static_cast<std::size_t>(max_batch) > queue_capacity) {
    throw std::invalid_argument(
        "ServerConfig: max_batch (" + std::to_string(max_batch) +
        ") must not exceed queue_capacity (" +
        std::to_string(queue_capacity) + ")");
  }
  return *this;
}

Server::Server(Servable& backend, ServerConfig config)
    : backend_(backend),
      config_(config.validate()),
      queue_(config.queue_capacity) {
  stats_.batch_histogram.assign(
      static_cast<std::size_t>(config_.max_batch) + 1, 0);
  batch_former_ = std::thread([this] { serve_loop(); });
}

Server::~Server() { shutdown(); }

std::future<Prediction> Server::submit(const float* image) {
  Request request;
  request.image.assign(image, image + kPixels);
  request.enqueued_at = ServeClock::now();
  if (obs::tracing_enabled()) {
    request.trace_id =
        g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
    obs::trace_instant(obs::SpanName::kServerSubmit, request.trace_id,
                       queue_.size());
  }
  std::future<Prediction> future = request.result.get_future();
  // Count acceptance *before* the enqueue: the batch former may complete
  // the request before this thread regains stats_mutex_, and a stats()
  // snapshot must never show completed > accepted. Rolled back on reject.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted;
  }
  try {
    queue_.push(std::move(request));
  } catch (const QueueFullError&) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    --stats_.accepted;
    ++stats_.rejected;
    throw;
  } catch (...) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    --stats_.accepted;
    throw;
  }
  return future;
}

void Server::serve_loop() {
  std::vector<float> packed;
  std::vector<Prediction> predictions;
  for (;;) {
    std::vector<Request> batch = queue_.pop_batch(
        config_.max_batch, std::chrono::microseconds(config_.max_delay_us));
    if (batch.empty()) return;  // closed and drained

    const int m = static_cast<int>(batch.size());
    const auto dispatched_at = ServeClock::now();
    packed.resize(static_cast<std::size_t>(m) * kPixels);
    for (int i = 0; i < m; ++i) {
      std::copy(batch[static_cast<std::size_t>(i)].image.begin(),
                batch[static_cast<std::size_t>(i)].image.end(),
                packed.begin() + static_cast<std::size_t>(i) * kPixels);
    }

    // Representative trace id for the batch spans: the first sampled id in
    // the batch (a batch of one is exactly that request's trace).
    std::uint64_t batch_trace_id = 0;
    if (obs::tracing_enabled()) {
      for (const Request& request : batch) {
        if (obs::trace_sampled(request.trace_id)) {
          batch_trace_id = request.trace_id;
          break;
        }
      }
    }

    predictions.assign(static_cast<std::size_t>(m), Prediction{});
    ServeStats batch_stats{};
    std::exception_ptr failure;
    try {
      obs::SpanScope batch_span(obs::SpanName::kServerBatch, batch_trace_id,
                                static_cast<std::uint64_t>(m));
      obs::AmbientTrace ambient(batch_trace_id);
      batch_stats = backend_.classify(packed.data(), m, predictions.data());
    } catch (...) {
      failure = std::current_exception();
    }
    const auto finished_at = ServeClock::now();
    const double compute_ms = ms_between(dispatched_at, finished_at);

    double queue_wait_sum = 0.0;
    if (!failure) {
      for (int i = 0; i < m; ++i) {
        Prediction& p = predictions[static_cast<std::size_t>(i)];
        p.trace_id = batch[static_cast<std::size_t>(i)].trace_id;
        p.queue_wait_ms = ms_between(
            batch[static_cast<std::size_t>(i)].enqueued_at, dispatched_at);
        p.compute_ms = compute_ms;
        p.batch_size = m;
        queue_wait_sum += p.queue_wait_ms;
      }
    }

    // Account the batch *before* resolving its futures: a producer that has
    // get() every future it submitted must see those requests in a stats()
    // snapshot (accepted is likewise counted before the enqueue, so the
    // completed <= accepted invariant holds from both sides).
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches;
      ++stats_.batch_histogram[static_cast<std::size_t>(m)];
      if (failure) {
        stats_.failed += m;
      } else {
        stats_.completed += m;
        stats_.queue_wait_ms_sum += queue_wait_sum;
        stats_.compute_ms_sum += compute_ms * m;
        stats_.energy_j += batch_stats.energy_j;
      }
    }

    for (int i = 0; i < m; ++i) {
      Request& request = batch[static_cast<std::size_t>(i)];
      if (failure) {
        request.result.set_exception(failure);
      } else {
        request.result.set_value(predictions[static_cast<std::size_t>(i)]);
      }
    }
  }
}

void Server::shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.close();  // serve_loop drains the backlog, then exits
    if (batch_former_.joinable()) batch_former_.join();
  });
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Server::register_metrics(obs::MetricsRegistry& registry,
                              const std::string& model) {
  const std::weak_ptr<const Server> server = self_;
  const obs::Labels labels{{"model", model}};
  auto counter = [&](const char* name, const char* help,
                     long ServerStats::* field) {
    registry.counter_fn(name, help, labels, [server, field] {
      const std::shared_ptr<const Server> s = server.lock();
      if (!s) return std::uint64_t{0};
      std::lock_guard<std::mutex> lock(s->stats_mutex_);
      return static_cast<std::uint64_t>(std::max(0L, s->stats_.*field));
    });
  };
  counter("scbnn_server_accepted_total", "Requests admitted to the queue",
          &ServerStats::accepted);
  counter("scbnn_server_rejected_total",
          "Requests refused by admission control", &ServerStats::rejected);
  counter("scbnn_server_completed_total",
          "Futures resolved with a Prediction", &ServerStats::completed);
  counter("scbnn_server_failed_total", "Futures resolved with an exception",
          &ServerStats::failed);
  counter("scbnn_server_batches_total", "Dispatches to the backend",
          &ServerStats::batches);

  auto gauge = [&](const char* name, const char* help,
                   double (*read)(const Server&)) {
    registry.gauge_fn(name, help, labels, [server, read] {
      const std::shared_ptr<const Server> s = server.lock();
      return s ? read(*s) : 0.0;
    });
  };
  gauge("scbnn_server_queue_depth", "Requests waiting for dispatch",
        [](const Server& s) { return static_cast<double>(s.queue_depth()); });
  gauge("scbnn_server_mean_batch_size", "Mean coalesced batch size",
        [](const Server& s) { return s.stats().mean_batch_size(); });
  gauge("scbnn_server_energy_joules", "Summed backend energy estimate",
        [](const Server& s) { return s.stats().energy_j; });
  gauge("scbnn_server_mean_queue_wait_ms", "Mean request queue wait",
        [](const Server& s) {
          const ServerStats st = s.stats();
          return st.completed > 0 ? st.queue_wait_ms_sum / st.completed : 0.0;
        });
  gauge("scbnn_executor_workers", "Compute executor threads",
        [](const Server& s) {
          return static_cast<double>(s.executor_stats().workers);
        });

  auto executor_counter = [&](const char* name, const char* help,
                              std::uint64_t ExecutorStats::* field) {
    registry.counter_fn(name, help, labels, [server, field] {
      const std::shared_ptr<const Server> s = server.lock();
      return s ? s->executor_stats().*field : std::uint64_t{0};
    });
  };
  executor_counter("scbnn_executor_parallel_for_total",
                   "parallel_for fan-outs dispatched",
                   &ExecutorStats::parallel_fors);
  executor_counter("scbnn_executor_chunks_total",
                   "parallel_for chunks executed", &ExecutorStats::chunks_run);
  executor_counter("scbnn_executor_steal_attempts_total",
                   "Chunk claims tried on another worker's home chunk",
                   &ExecutorStats::steal_attempts);
  executor_counter("scbnn_executor_steals_total",
                   "Chunk claims won on another worker's home chunk",
                   &ExecutorStats::steals);
  executor_counter("scbnn_executor_parks_total",
                   "Times an idle worker went to sleep", &ExecutorStats::parks);
}

}  // namespace scbnn::runtime
