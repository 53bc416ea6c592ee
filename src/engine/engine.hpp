// engine:: — the uniform backend seam every consumer launches through.
//
// The paper's whole argument is a controlled comparison of execution models
// (RIO vs. centralized out-of-order, Fig. 1 / Section 5), so every engine
// runs under the same worker, wait-policy and failure settings through
// exactly one seam:
//
//   * Backend   — `run(const stf::FlowImage&, const Launch&) -> Outcome`;
//   * Launch    — the one run configuration (launch.hpp): the rio, coor and
//                 hybrid runtimes are built from it directly, and the
//                 simulators read their workers/faults/retry/obs from it;
//   * Capabilities — per-backend flags consumers branch on instead of name
//                 strings; a Launch asking for more than a backend offers is
//                 rejected with ONE structured UnsupportedLaunch error;
//   * Registry  — the process-wide directory (registry.hpp) where seq, rio,
//                 rio-pruned, coor, hybrid, sim-rio, sim-coor and sim-hybrid
//                 self-register by name.
//
// Adding a backend = implement Backend + one registration line in
// src/engine/backends.cpp. See docs/engines.md for the recipe.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/stats.hpp"
#include "engine/launch.hpp"
#include "stf/flow_image.hpp"
#include "stf/trace.hpp"

namespace rio::engine {

/// What a backend can do. Consumers branch on these flags instead of on
/// engine-name strings; `validate()` turns a Launch that asks for more than
/// the backend offers into one structured error (CLI exit code 2).
struct Capabilities {
  bool executes_bodies = false;  ///< task bodies really run — results are
                                 ///< byte-comparable to the sequential oracle
  bool virtual_time = false;     ///< makespan/buckets are virtual ticks, not
                                 ///< wall-clock ns (discrete-event simulator)
  bool supports_faults = false;  ///< fault injection + retry policy honoured
  bool supports_watchdog = false;  ///< progress watchdog (real-time engines)
  bool supports_sync = false;    ///< records acquire/release sync events for
                                 ///< the happens-before checker (src/analysis)
  bool supports_obs = false;     ///< obs::Hub telemetry
                                 ///< (docs/observability.md); a sample-1
                                 ///< recorder's body spans form a validatable
                                 ///< trace (stf::trace_from_hub)
  bool supports_guard = false;   ///< dynamic access-guard race detection
  bool supports_streaming = false;  ///< has a run_program streaming front end
                                    ///< (outside this interface; rio only)
  bool needs_mapping = false;    ///< requires a full static Launch::mapping
  bool partial_mapping = false;  ///< consumes an rt::PartialMapping
  bool uses_wait_policy = false;  ///< honours Launch::wait_policy
  bool uses_scheduler = false;    ///< honours Launch::scheduler/work_stealing
  bool in_order = false;   ///< per-worker in-order execution (what
                           ///< Trace::validate's worker_in_order checks)
  bool has_master = false;  ///< RunStats carries an extra master slot (p)
  bool supports_recovery = false;  ///< honours Launch::resume/checkpoint and
                                   ///< escalates worker death as
                                   ///< stf::WorkerLost — the Supervisor's
                                   ///< evict-and-remap loop works here
};

/// The flags as a stable (name, value) list — one place feeds the `rioflow
/// engines` table, the rio.engines.v1 JSON and docs/engines.md.
[[nodiscard]] std::vector<std::pair<std::string_view, bool>> capability_list(
    const Capabilities& caps);

/// What one run produced. `stats` is always filled; the extras are only
/// meaningful when the corresponding capability is set (and cheap/empty
/// otherwise), so generic consumers can carry one Outcome type around.
struct Outcome {
  support::RunStats stats;
  bool virtual_time = false;   ///< copied from the backend's capabilities
  std::uint64_t makespan = 0;  ///< wall ns, or virtual ticks for simulators

  stf::SyncTrace sync;  ///< filled when Launch::collect_sync

  // Simulator resilience counters (sim::Report); real engines count via the
  // FaultInjector the caller passed in.
  std::uint64_t injected_throws = 0;
  std::uint64_t injected_stalls = 0;
  std::uint64_t retried_tasks = 0;
  std::uint64_t failed_tasks = 0;

  // Hybrid extras.
  std::size_t phases = 0;
  std::size_t completed_phases = 0;

  // rio-pruned extra: plan-cache misses paid by THIS call — 1 when the
  // plan for (image, mapping, workers) had to be compiled, 0 on a warm hit
  // of the backend's resident plan. Always 0 on other backends.
  std::uint64_t plan_compiles = 0;

  // Recovery extras (filled by engine::run_supervised, or by simulators
  // modelling eviction): how many workers died and were evicted, how many
  // tasks the resumed attempts walked again, and the wall time spent in
  // recovery (restore + remap + resumed attempts) beyond the first run.
  std::uint64_t evictions = 0;
  std::uint64_t tasks_replayed = 0;
  std::uint64_t recovery_wall_ns = 0;
  std::vector<stf::WorkerId> evicted_workers;
};

/// The one structured "that knob is not supported here" error (satellite of
/// docs/engines.md): lists every offending Launch knob at once. The CLI maps
/// it to exit code 2; unknown engine NAMES are a different error (exit 1).
class UnsupportedLaunch : public std::runtime_error {
 public:
  UnsupportedLaunch(std::string_view backend, const std::string& detail)
      : std::runtime_error("engine '" + std::string(backend) +
                           "' cannot run this launch: " + detail) {}
};

/// A registered execution backend. run() is const and safe to call from
/// any thread, concurrently and re-entrantly. The real engines (rio,
/// rio-pruned, coor, hybrid) run on persistent executors
/// (engine/executor.hpp) that live as long as the registry and keep parked
/// threads, the runtime's arenas and rio's compiled pruned plan resident
/// between calls; a call that finds its executor busy (another thread, or
/// a task body re-entering the backend) falls back to a private one-shot
/// runtime. The simulators and seq keep no state between calls.
class Backend {
 public:
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;
  [[nodiscard]] virtual const Capabilities& caps() const noexcept = 0;

  /// Validates `launch` against caps() — throws UnsupportedLaunch naming
  /// every unsupported knob — then executes the whole image to completion.
  /// Failure semantics are the underlying engine's: stf::TaskFailure on
  /// retry exhaustion, stf::StallError on watchdog fire, first body
  /// exception otherwise.
  [[nodiscard]] virtual Outcome run(const stf::FlowImage& image,
                                    const Launch& launch) const = 0;
};

/// Every Launch knob `caps` cannot honour, as human-readable fragments
/// (empty = launchable). Shared by validate() and the CLI's pre-flight.
[[nodiscard]] std::vector<std::string> unsupported_knobs(
    const Capabilities& caps, const Launch& launch);

/// Throws UnsupportedLaunch listing every offending knob; no-op when the
/// launch fits the backend's capabilities.
void validate(const Backend& backend, const Launch& launch);

}  // namespace rio::engine
