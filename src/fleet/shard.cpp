#include "fleet/shard.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "hybrid/bundle.h"
#include "runtime/process_stats.h"
#include "runtime/servable.h"

namespace scbnn::fleet {

namespace {

void add_status_double(std::atomic<std::uint64_t>& bits, double delta) {
  const double current = std::bit_cast<double>(
      bits.load(std::memory_order_relaxed));
  bits.store(std::bit_cast<std::uint64_t>(current + delta),
             std::memory_order_relaxed);
}

}  // namespace

double status_double(const std::atomic<std::uint64_t>& bits) {
  return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

std::size_t ShardChannel::bytes_for(std::size_t request_slots,
                                    std::size_t response_slots) {
  return sizeof(ShardStatus) +
         obs::TraceRecorder::bytes_for(kShardTraceRings, kShardTraceSpans) +
         SpscRing<RequestSlot>::bytes_for(request_slots) +
         SpscRing<ResponseSlot>::bytes_for(response_slots);
}

ShardChannel ShardChannel::attach(void* memory, std::size_t request_slots,
                                  std::size_t response_slots,
                                  bool initialize) {
  auto* base = static_cast<char*>(memory);
  ShardChannel channel;
  channel.status = reinterpret_cast<ShardStatus*>(base);
  if (initialize) new (channel.status) ShardStatus();
  char* trace_base = base + sizeof(ShardStatus);
  channel.trace = obs::TraceRecorder::attach(trace_base, kShardTraceRings,
                                             kShardTraceSpans, initialize);
  char* request_base =
      trace_base +
      obs::TraceRecorder::bytes_for(kShardTraceRings, kShardTraceSpans);
  char* response_base =
      request_base + SpscRing<RequestSlot>::bytes_for(request_slots);
  channel.requests =
      SpscRing<RequestSlot>::attach(request_base, request_slots, initialize);
  channel.responses = SpscRing<ResponseSlot>::attach(
      response_base, response_slots, initialize);
  return channel;
}

namespace {

void publish_usage(ShardStatus& status) {
  const runtime::ProcessUsage usage = runtime::process_usage();
  status.peak_rss_bytes.store(usage.peak_rss_bytes,
                              std::memory_order_relaxed);
  status.cpu_utime_us.store(
      static_cast<std::uint64_t>(usage.utime_s * 1e6),
      std::memory_order_relaxed);
  status.cpu_stime_us.store(
      static_cast<std::uint64_t>(usage.stime_s * 1e6),
      std::memory_order_relaxed);
  status.vol_ctx_switches.store(usage.voluntary_ctx_switches,
                                std::memory_order_relaxed);
  status.invol_ctx_switches.store(usage.involuntary_ctx_switches,
                                  std::memory_order_relaxed);
}

}  // namespace

int shard_main(const ShardChannel& channel, const ShardSpec& spec) {
  ShardStatus& status = *channel.status;
  // Route this process's spans into the shm flight recorder: after a
  // kill -9 the supervisor reads them back from the segment. The channel
  // reference outlives the loop (shard processes _exit after returning).
  obs::TraceRecorder flight = channel.trace;
  obs::install_recorder(&flight);
  SpscRing<RequestSlot> requests = channel.requests;
  SpscRing<ResponseSlot> responses = channel.responses;

  status.pid.store(static_cast<std::int32_t>(::getpid()),
                   std::memory_order_relaxed);
  // A predecessor killed mid-park may have left its parked flag set; clear
  // the sides this process owns so the coordinator never skips a wake.
  requests.reset_consumer_park();
  responses.reset_producer_park();

  // Millisecond cold-start: deserialize the bundle and rebuild the ladder
  // through the registry — no training in a serving process, ever.
  std::unique_ptr<runtime::Servable> backend;
  try {
    hybrid::ModelBundle bundle = hybrid::load_bundle(spec.bundle_path);
    runtime::RuntimeConfig rc;
    rc.threads = spec.threads;
    backend = hybrid::instantiate_servable(bundle, rc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard: cannot start from bundle '%s': %s\n",
                 spec.bundle_path.c_str(), e.what());
    return 1;
  }

  status.epoch.fetch_add(1, std::memory_order_relaxed);
  // The model is the bulk of a shard's footprint — publish the high-water
  // mark (and the CPU/context-switch counters) as soon as it is loaded,
  // then refresh periodically below.
  publish_usage(status);
  status.ready.store(1, std::memory_order_release);

  const auto max_batch = static_cast<std::size_t>(spec.max_batch);
  std::vector<float> staged(max_batch * kFramePixels);
  std::vector<runtime::Prediction> preds(max_batch);
  std::vector<std::size_t> live;  // batch positions that get compute
  live.reserve(max_batch);
  std::uint64_t iterations = 0;

  while (true) {
    status.heartbeat.fetch_add(1, std::memory_order_relaxed);
    const std::size_t available = requests.wait_nonempty();
    if (available == 0) break;  // request ring closed and drained
    const std::size_t batch = std::min(available, max_batch);

    // SLO pass: split the batch into compute (staged densely) and
    // drop-now (stale hard deadlines), and take the batch's escalation
    // ceiling as the minimum header cap — one set_max_rung per batch, the
    // same "cap read once per dispatch" contract AdaptivePipeline already
    // honors.
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            runtime::ServeClock::now().time_since_epoch())
            .count();
    live.clear();
    int cap = runtime::Servable::kUncappedRung;
    std::uint64_t batch_trace_id = 0;  // representative id for batch spans
    for (std::size_t i = 0; i < batch; ++i) {
      const RequestSlot& slot = requests.peek(i);
      if (batch_trace_id == 0 && obs::trace_sampled(slot.trace_id)) {
        batch_trace_id = slot.trace_id;
      }
      if (slot.slo == SloClass::kHardDeadline && slot.deadline_ns != 0 &&
          now_ns > slot.deadline_ns) {
        continue;  // stale: respond without compute
      }
      std::memcpy(staged.data() + live.size() * kFramePixels, slot.pixels,
                  sizeof(float) * kFramePixels);
      cap = std::min(cap, static_cast<int>(slot.rung_cap));
      live.push_back(i);
    }

    // Flight-recorder key record: written whenever tracing is on at all
    // (not just for sampled ids), so a kill -9 post-mortem always shows
    // the batch that was in flight.
    obs::trace_instant_always(obs::SpanName::kShardBatchBegin,
                              batch_trace_id, requests.peek(0).sequence,
                              batch, live.size());

    runtime::ServeStats stats;
    if (!live.empty()) {
      obs::SpanScope batch_span(obs::SpanName::kShardBatch, batch_trace_id,
                                requests.peek(0).sequence, batch,
                                live.size());
      obs::AmbientTrace ambient(batch_trace_id);
      backend->set_max_rung(cap);
      stats = backend->classify(staged.data(),
                                static_cast<int>(live.size()), preds.data());
    }
    // Count the batch before answering it: once a future resolves, the
    // status words already include its frame.
    status.served.fetch_add(live.size(), std::memory_order_relaxed);
    status.batches.fetch_add(live.empty() ? 0 : 1,
                             std::memory_order_relaxed);
    add_status_double(status.energy_j_bits, stats.energy_j);
    add_status_double(status.compute_ms_bits, stats.latency_ms);

    // Responses in ring order: dropped requests get a drop notice, live
    // ones their Prediction. Every response is pushed before the requests
    // are released — the crash-replay invariant.
    std::size_t next_live = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      const RequestSlot& slot = requests.peek(i);
      ResponseSlot out;
      out.sequence = slot.sequence;
      out.trace_id = slot.trace_id;
      out.batch_size = static_cast<std::int32_t>(live.size());
      if (next_live < live.size() && live[next_live] == i) {
        const runtime::Prediction& p = preds[next_live];
        out.label = p.label;
        out.margin = p.margin;
        out.rung = p.rung;
        out.bits_used = p.bits_used;
        // Report the cap the batch was actually served under (the min over
        // its headers) — backend-independent, unlike Prediction::rung_cap.
        out.rung_cap = static_cast<std::int32_t>(cap);
        out.energy_j = p.energy_j;
        out.compute_ms = stats.latency_ms;
        ++next_live;
      } else {
        out.flags |= kFlagDeadlineDropped;
        status.dropped_deadline.fetch_add(1, std::memory_order_relaxed);
      }
      // A full ring waits on the collector: announce what is already
      // pushed before parking, so the collector is never asleep on it.
      if (!responses.try_push(out)) {
        channel.response_bell->ring();
        if (!responses.push_wait(out)) break;  // torn down underneath us
      }
    }
    channel.response_bell->ring();
    requests.release(batch);
    if ((++iterations & 63u) == 0) {
      publish_usage(status);
    }
  }

  publish_usage(status);
  status.ready.store(0, std::memory_order_release);
  responses.close();
  obs::install_recorder(nullptr);
  return 0;
}

}  // namespace scbnn::fleet
