// CPU topology discovery and thread pinning.
//
// The paper's artifact depends on hwloc for binding workers to cores; this
// is the minimal substitute: count online CPUs, pin threads with the
// native affinity call. Pinning matters for the decentralized model —
// worker-private local state only stays private to a cache if the worker
// stays on its core. On hosts without affinity support (or a single CPU)
// everything degrades to a no-op gracefully.
#pragma once

#include <cstdint>

namespace rio::support {

struct CpuTopology {
  std::uint32_t logical_cpus = 1;  ///< online logical processors
};

/// Detects the host topology once per process (never fails; falls back to
/// 1 CPU). CPU hotplug after the first call is not observed.
CpuTopology detect_topology() noexcept;

/// Pins the calling thread to `cpu` (logical index). Returns false when the
/// cpu does not exist or the platform refuses.
bool pin_current_thread(std::uint32_t cpu) noexcept;

/// Clears the calling thread's pinning (allow all CPUs). Returns false on
/// unsupported platforms.
bool unpin_current_thread() noexcept;

}  // namespace rio::support
