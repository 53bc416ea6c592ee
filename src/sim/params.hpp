// Simulator cost parameters.
//
// The discrete-event simulator executes a task flow on p VIRTUAL cores in
// virtual time (ticks ~ nanoseconds), so the paper's 24- and 64-core
// experiments can be regenerated on any host. The cost parameters encode
// the per-task runtime costs of the two execution models — the t_r terms
// of cost models (1) and (2) in Section 3.3 — refined per access so that
// workloads with more dependencies pay proportionally more, as they do in
// the real runtimes.
//
// Default values are calibrated to the orders of magnitude reported by the
// paper and the Task Bench survey it cites:
//   * RIO's skip path is "one or two writes in private memory per
//     dependency" (Section 3.4): single-digit ns per access.
//   * RIO's own-task path does a handful of atomic operations: tens of ns.
//   * StarPU-class centralized runtimes spend on the order of a
//     microsecond per task in the master (Task Bench reports ~100 us
//     minimum profitable task size on ~24-core nodes, i.e. per-task
//     management within ~1-2 orders of magnitude below that).
// Every bench prints the parameters it used; EXPERIMENTS.md discusses the
// sensitivity.
#pragma once

#include <cstdint>
#include <vector>

#include "support/fault.hpp"

namespace rio::obs {
class Hub;
}

namespace rio::sim {

/// Virtual time unit: 1 tick == 1 ns of modelled time. Task `cost` fields
/// (in "instructions") are converted with instructions_per_tick.
struct TimeScale {
  double instructions_per_tick = 1.0;  ///< ~1 simple instruction per ns
  /// Virtual time at which the run starts. It only shifts the hub's event
  /// timestamps; makespans and buckets are durations. simulate_hybrid
  /// starts each phase where the earlier phases ended.
  std::uint64_t start_tick = 0;
};

/// Decentralized in-order (RIO) model costs.
struct DecentralizedParams {
  std::uint32_t workers = 24;

  // Cost a worker pays to SKIP a task mapped elsewhere (Algorithm 1's
  // declare path): loop/dispatch overhead + private writes per access.
  std::uint64_t skip_per_task = 3;
  std::uint64_t skip_per_access = 2;

  // Cost a worker pays AROUND a task it executes: mapping call + loop on
  // top of get_*/terminate_* per access (atomic ops, fences).
  std::uint64_t own_per_task = 25;
  std::uint64_t own_per_access = 20;

  // When true, model task pruning (Section 3.5): workers do not pay skip
  // costs at all — each walks only its own task list.
  bool pruned = false;

  // Relative execution speed per worker (empty = homogeneous 1.0). Values
  // < 1 model stragglers (thermal throttling, noisy neighbours): the
  // scenario where a STATIC mapping pays for its lost reactivity — the
  // trade-off the paper's abstract concedes.
  std::vector<double> worker_speed;

  // Extra ticks a dependency costs when producer and consumer are mapped
  // to DIFFERENT workers (cache-to-cache / cross-NUMA transfer). A good
  // owner-computes mapping keeps dependencies worker-local and pays
  // nothing — the locality advantage of static placement.
  std::uint64_t cross_worker_latency = 0;

  // Deterministic fault model (sim/fault_model.hpp): injected stalls burn
  // virtual ticks; injected throws cost a wasted execution per retried
  // attempt. Defaults (empty plan) are cost-free.
  support::FaultPlan faults;
  support::RetryPolicy retry;

  // Worker-loss recovery cost model (docs/robustness.md "worker loss"): a
  // crash fault in the plan wastes the crashed attempt, burns the watchdog
  // detection window on EVERY worker (the run aborts globally before the
  // supervisor evicts and resumes), and replays each already-completed
  // task as a protocol no-op on the resumed attempt. The detection window
  // models 100 µs, not the real engines' latency: they arm a 100 ms
  // watchdog (engine::kCrashWatchdogNs) whose tripwire polls every
  // window / 8, so a death is detected within about 12.5 ms. Replay ops
  // cost single-digit ns.
  std::uint64_t crash_detect_ticks = 100'000;
  std::uint64_t replay_per_task = 5;

  obs::Hub* obs = nullptr;  ///< telemetry hub (docs/observability.md); not
                            ///< owned. Timestamps are VIRTUAL ticks — the
                            ///< hub's clock unit is switched to kTicks.
};

/// Centralized out-of-order (StarPU-like) model costs.
struct CentralizedParams {
  std::uint32_t workers = 23;  ///< executing workers; the master is EXTRA,
                               ///< so workers=23 + master models 24 threads

  // Master-side cost to discover, track and dispatch one task. This is the
  // serialized resource of cost model (1).
  std::uint64_t master_per_task = 1200;
  std::uint64_t master_per_access = 150;

  // Worker-side cost to pop a task from the shared queue (lock + cache
  // transfer) and to publish completion.
  std::uint64_t worker_pop = 250;

  // Relative execution speed per worker (empty = homogeneous 1.0). The
  // dynamic scheduler naturally routes around stragglers.
  std::vector<double> worker_speed;

  // Extra ticks per dependency edge: a queue-fed worker pool gives no
  // producer-consumer affinity, so every dependency is assumed to cross
  // caches (the pessimistic-but-fair counterpart of the decentralized
  // model's mapping-aware latency).
  std::uint64_t cross_worker_latency = 0;

  // Deterministic fault model — same semantics as DecentralizedParams.
  support::FaultPlan faults;
  support::RetryPolicy retry;

  // Worker-loss recovery cost model — same semantics as
  // DecentralizedParams (detection is the watchdog window; replay is the
  // master re-discovering completed tasks on resume).
  std::uint64_t crash_detect_ticks = 100'000;
  std::uint64_t replay_per_task = 5;

  obs::Hub* obs = nullptr;  ///< telemetry hub; worker slots 0..p-1, master
                            ///< slot p, virtual-tick timestamps (kTicks)
};

}  // namespace rio::sim
