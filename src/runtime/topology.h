// CPU topology discovery and worker->cpu pin plans.
//
// The runtime::Executor can optionally pin its workers
// (SCBNN_PIN=auto|off|compact|scatter). The planning half is pure —
// pin_plan() maps a worker count onto an explicit CpuTopology, so tests
// exercise compact/scatter/auto placement on synthetic machines — and
// only read_cpu_topology()/pin_current_thread() touch the OS
// (/sys/devices/system/cpu and sched_setaffinity, Linux-only; both
// degrade to no-ops elsewhere).
#pragma once

#include <string>
#include <vector>

namespace scbnn::runtime {

enum class PinMode {
  kOff,      ///< no affinity calls at all (the default)
  kAuto,     ///< compact when workers fit the physical cores, else off
  kCompact,  ///< fill physical cores package by package, SMT siblings last
  kScatter,  ///< round-robin packages (spread across sockets/LLCs)
};

[[nodiscard]] std::string to_string(PinMode mode);

/// Parse "off"/"auto"/"compact"/"scatter" (the SCBNN_PIN values).
/// Throws std::invalid_argument listing the valid names for anything
/// else.
[[nodiscard]] PinMode pin_mode_from_string(const std::string& name);

/// PinMode from the SCBNN_PIN environment variable: unset or empty means
/// kOff; a malformed value warns on stderr and falls back to kOff (the
/// same warn-and-keep-defaults convention as the SCBNN_* bench knobs).
[[nodiscard]] PinMode pin_mode_from_env();

struct CpuTopology {
  struct Cpu {
    int id = 0;       ///< kernel cpu number (the sched_setaffinity target)
    int core = 0;     ///< physical core id within the package
    int package = 0;  ///< socket / physical package id
  };
  std::vector<Cpu> cpus;

  /// Distinct (package, core) pairs — hyperthread siblings collapse.
  [[nodiscard]] std::size_t physical_cores() const;
  [[nodiscard]] std::size_t packages() const;
};

/// Parse a kernel cpu-list string ("0-3,8,10-11") into cpu ids.
/// Malformed chunks are skipped. Exposed for tests.
[[nodiscard]] std::vector<int> parse_cpu_list(const std::string& list);

/// The running machine's topology from /sys/devices/system/cpu. On
/// non-Linux hosts, or when sysfs is unreadable, falls back to a flat
/// topology (hardware_concurrency cpus, one package, one cpu per core) —
/// pin plans over it are still valid affinity targets.
[[nodiscard]] CpuTopology read_cpu_topology();

/// cpu id to pin worker slot i to, for `workers` workers under `mode`.
/// Empty result means "do not pin" (mode off, auto declined, or a
/// degenerate topology). When workers exceed the cpu count the plan
/// wraps, so every worker still gets a valid target.
[[nodiscard]] std::vector<int> pin_plan(const CpuTopology& topo,
                                        unsigned workers, PinMode mode);

/// Best-effort sched_setaffinity of the calling thread to `cpu`;
/// returns false (and does nothing) when unsupported or refused.
bool pin_current_thread(int cpu);

}  // namespace scbnn::runtime
