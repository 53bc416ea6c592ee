#include "support/topology.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace rio::support {

CpuTopology detect_topology() noexcept {
  // sysconf reads /sys/devices/system/cpu/online (a few microseconds), and
  // every pinning-capable run asks: detect once per process.
  static const CpuTopology topo = [] {
    CpuTopology t;
#if defined(__linux__)
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    if (online > 0) t.logical_cpus = static_cast<std::uint32_t>(online);
#endif
    return t;
  }();
  return topo;
}

bool pin_current_thread(std::uint32_t cpu) noexcept {
#if defined(__linux__)
  if (cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool unpin_current_thread() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::uint32_t n = detect_topology().logical_cpus;
  for (std::uint32_t c = 0; c < n && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;
#endif
}

}  // namespace rio::support
