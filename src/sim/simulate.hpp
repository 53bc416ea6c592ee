// Discrete-event simulation of the two execution models.
//
// Both simulators consume a materialized TaskFlow (costs in virtual
// instructions) and produce the same RunStats shape as the real runtimes,
// with the tau buckets in virtual ticks and — unlike wall-clock
// measurements — the EXACT identity tau_task + tau_idle + tau_runtime ==
// p * makespan per construction. metrics/ then derives the paper's
// efficiency decomposition from them.
//
// Determinism: given the same flow, mapping and parameters the simulators
// are bit-reproducible; no randomness, no host-speed dependence.
#pragma once

#include <vector>

#include "support/stats.hpp"
#include "sim/params.hpp"
#include "hybrid/runtime.hpp"
#include "rio/mapping.hpp"
#include "stf/dependency.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"

namespace rio::sim {

/// Result of one simulated execution.
struct Report {
  support::RunStats stats;    ///< buckets in virtual ticks; wall_ns==makespan
  std::uint64_t makespan = 0; ///< virtual t_p
  std::uint64_t total_threads = 0;  ///< p used for the tau identity

  // Resilience counters (sim/fault_model.hpp); all zero when the params
  // carry no fault plan.
  std::uint64_t injected_throws = 0;  ///< faulted (task, attempt) pairs
  std::uint64_t injected_stalls = 0;  ///< tasks that hit a stall window
  std::uint64_t retried_tasks = 0;    ///< tasks needing >= 1 re-execution
  std::uint64_t failed_tasks = 0;     ///< tasks that exhausted the budget

  // Worker-loss recovery counters (crash faults in the plan): evictions
  // counts modelled worker deaths; tasks_replayed counts the completed
  // tasks the resumed attempt walked again as protocol no-ops.
  std::uint64_t evictions = 0;
  std::uint64_t tasks_replayed = 0;
};

/// Simulates RIO's decentralized in-order model (Section 3): every virtual
/// worker scans the whole flow, pays skip costs for foreign tasks and
/// own+wait+execute costs for its own, with dependency stalls derived from
/// the exact Algorithm-2 semantics. Runs in O(n * accesses) time using the
/// prefix-sum formulation (worker cursors = shared prefix + per-worker
/// offset), valid because task ids are a topological order of both the
/// dependency DAG and each worker's in-order chain.
/// The TaskFlow entry point compiles a throwaway FlowImage; sweep
/// drivers that simulate one flow many times (bench/fig*) should compile
/// once and pass the image.
Report simulate_decentralized(const stf::TaskFlow& flow,
                              const rt::Mapping& mapping,
                              const DecentralizedParams& params,
                              const TimeScale& scale = {});
Report simulate_decentralized(const stf::FlowImage& image,
                              const rt::Mapping& mapping,
                              const DecentralizedParams& params,
                              const TimeScale& scale = {});
Report simulate_decentralized(const stf::ImageRange& range,
                              const rt::Mapping& mapping,
                              const DecentralizedParams& params,
                              const TimeScale& scale = {});

/// Simulates the centralized OoO model (Figure 1): a dedicated master
/// discovers one task per master_per_task(+accesses) ticks; tasks whose
/// dependencies are resolved AND that have been discovered enter a ready
/// pool; idle workers take the earliest-ready task (list scheduling).
/// Event-driven, O(n log n).
Report simulate_centralized(const stf::TaskFlow& flow,
                            const CentralizedParams& params,
                            const TimeScale& scale = {});
Report simulate_centralized(const stf::FlowImage& image,
                            const CentralizedParams& params,
                            const TimeScale& scale = {});
Report simulate_centralized(const stf::ImageRange& range,
                            const CentralizedParams& params,
                            const TimeScale& scale = {});

/// Simulates the hybrid execution model (src/hybrid): phases run
/// alternately on the decentralized and centralized virtual engines with a
/// barrier between them. Worker slots 0..p-1 aggregate across phases; the
/// extra slot is the dynamic phases' master (idle in static phases). The
/// decentralized params' worker count must equal the centralized one so
/// the thread pool is comparable: p workers + 1 master-capable thread.
Report simulate_hybrid(const stf::TaskFlow& flow,
                       const std::vector<hybrid::Phase>& phases,
                       const DecentralizedParams& dparams,
                       const CentralizedParams& cparams,
                       const TimeScale& scale = {});
Report simulate_hybrid(const stf::FlowImage& image,
                       const std::vector<hybrid::Phase>& phases,
                       const DecentralizedParams& dparams,
                       const CentralizedParams& cparams,
                       const TimeScale& scale = {});

/// Ideal lower bound: critical path vs perfect load balance on `workers`
/// cores with zero runtime cost — max(cp, total/|workers|). Used by benches
/// to draw the "perfect runtime" reference line.
std::uint64_t ideal_makespan(const stf::TaskFlow& flow,
                             const stf::DependencyGraph& graph,
                             std::uint32_t workers, const TimeScale& scale = {});

}  // namespace rio::sim
