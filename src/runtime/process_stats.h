// Per-process resource accounting for the serving layer.
//
// The fleet coordinator runs N forked shard processes; "how much memory
// does a shard cost" is a per-process question the in-process ExecutorStats
// cannot answer. These helpers read the kernel's high-water marks so a
// shard can publish its own peak RSS into shared memory and the benches can
// record per-process memory next to throughput.
#pragma once

#include <cstdint>
#include <sys/types.h>

namespace scbnn::runtime {

/// Peak resident set size of the calling process in bytes (getrusage
/// ru_maxrss). 0 if the kernel refuses the query.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Peak resident set size of a live process `pid` in bytes, read from
/// /proc/<pid>/status VmHWM. 0 when the process is gone or the field is
/// unavailable (non-Linux).
[[nodiscard]] std::uint64_t peak_rss_bytes(pid_t pid);

/// One getrusage(RUSAGE_SELF) snapshot: the per-process cost axes the
/// fleet reports per shard (CPU split user/system, scheduler pressure via
/// context switches) next to the memory high-water mark.
struct ProcessUsage {
  std::uint64_t peak_rss_bytes = 0;
  double utime_s = 0.0;  ///< user CPU seconds
  double stime_s = 0.0;  ///< system CPU seconds
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
};

/// Resource usage of the calling process; all-zero if the kernel refuses
/// the query.
[[nodiscard]] ProcessUsage process_usage();

}  // namespace scbnn::runtime
