// Hybrid execution — the combination the paper's conclusion calls for.
//
// "…we hope that the present study might motivate future work combining
//  both execution models (and thus requiring only partial mappings) for
//  enabling efficient and portable implementations of wider classes of
//  algorithms within the STF programming model."     (RR-9450, Section 6)
//
// This module implements that combination in its bulk-synchronous form:
// the task flow is partitioned into contiguous PHASES, each executed by
// the engine that suits its granularity —
//
//   * DYNAMIC phases run on the centralized out-of-order engine
//     (src/coor): coarse tasks, no mapping needed, full scheduling
//     freedom;
//   * STATIC phases run on the decentralized in-order engine (src/rio):
//     fine-grained tasks with a programmer-supplied mapping and
//     near-zero per-task overhead.
//
// The programmer supplies only a PARTIAL mapping: tasks with an owner go
// to static phases, unmapped tasks to dynamic phases; `partition()` cuts
// the flow at the boundaries. A phase boundary is a barrier, which makes
// cross-phase dependencies trivially satisfied and lets each engine reason
// about its slice in isolation (exactly how HPL alternates coarse trailing
// updates with fine-grained panel pivoting).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "coor/runtime.hpp"
#include "engine/launch.hpp"
#include "rio/mapping.hpp"
#include "rio/runtime.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"

namespace rio::hybrid {

/// One contiguous slice of the flow and the engine that executes it.
struct Phase {
  enum class Kind : std::uint8_t { kDynamic, kStatic };
  Kind kind = Kind::kDynamic;
  stf::TaskId first = 0;
  std::size_t count = 0;
  rt::Mapping mapping;  ///< valid for static phases only
};

/// Cuts tasks [0, num_tasks) into maximal runs of mapped / unmapped tasks
/// under `pm`. The returned phases cover the range exactly, in order.
std::vector<Phase> partition(std::size_t num_tasks,
                             const rt::PartialMapping& pm,
                             std::uint32_t num_workers);

/// Convenience overload on a materialized flow.
std::vector<Phase> partition(const stf::TaskFlow& flow,
                             const rt::PartialMapping& pm,
                             std::uint32_t num_workers);

class Runtime {
 public:
  /// Reads the Launch fields the hybrid backend declares (engine.hpp). Both
  /// phase engines run under one phase launch: a copy of `launch` with
  /// collect_trace, collect_sync and pin_workers cleared. `workers` counts
  /// the executing workers of BOTH phase kinds; dynamic phases add one
  /// pooled master thread, as in src/coor. One rt::Runtime and one
  /// coor::Runtime, members of this runtime, run every phase, so their
  /// arenas persist across phases and runs. All phases share one
  /// persistent workers+1 thread pool: the attached one, else one this
  /// runtime builds on its first run.
  ///
  /// Resilience and recovery (docs/robustness.md) reach both phase engines.
  /// A phase failure (retry exhaustion, stall, worker loss) propagates out
  /// of run() and cancels every later phase: a phase boundary is a barrier,
  /// so no task of a later phase can have started. The frontier/checkpoint
  /// bitmaps are indexed by GLOBAL task id, so a mid-phase worker death
  /// resumes correctly: earlier phases replay as no-ops, the interrupted
  /// phase replays its completed prefix and re-executes the rest. With an
  /// obs hub, worker slots 0..p-1 accumulate across every phase and slot p
  /// is the dynamic phases' master.
  explicit Runtime(engine::Launch launch);

  /// Replaces the launch for subsequent runs (the same phase-launch copy
  /// as the constructor). The phase engines' arenas and the pool survive
  /// (engine/executor.hpp).
  void configure(const engine::Launch& launch);

  /// Runs every phase on `pool` (>= workers + 1 threads) instead of a pool
  /// of this runtime's own. Pass nullptr to detach. The pool must outlive
  /// the runtime's runs.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

  /// Executes pre-partitioned phases. Phases must tile the flow
  /// contiguously from task 0 to the end.
  support::RunStats run(const stf::TaskFlow& flow,
                        const std::vector<Phase>& phases);

  /// Convenience: partition by a partial mapping, then run.
  support::RunStats run(const stf::TaskFlow& flow,
                        const rt::PartialMapping& pm);

  /// Replay from a compiled image (stf/flow_image.hpp): phases execute
  /// ImageRange slices directly — compile once, run many times. The TaskFlow
  /// overloads compile a throwaway image and forward here.
  support::RunStats run(const stf::FlowImage& image,
                        const std::vector<Phase>& phases);
  support::RunStats run(const stf::FlowImage& image,
                        const rt::PartialMapping& pm);

  /// Phase count of the last run (observability for tests/benches).
  [[nodiscard]] std::size_t last_phase_count() const noexcept {
    return last_phases_;
  }

  /// Phases that ran to completion in the last run. Equal to
  /// last_phase_count() on success; smaller when a phase failure cancelled
  /// the rest (the cross-phase propagation tests assert on this).
  [[nodiscard]] std::size_t completed_phases() const noexcept {
    return completed_phases_;
  }

 private:
  engine::Launch phase_;  // the launch both phase engines run under
  rt::Runtime rio_;       // static phases
  coor::Runtime coor_;    // dynamic phases
  std::size_t last_phases_ = 0;
  std::size_t completed_phases_ = 0;
  support::ThreadPool* pool_ = nullptr;  // attached; overrides own_pool_
  std::unique_ptr<support::ThreadPool> own_pool_;  // built on first need
};

}  // namespace rio::hybrid
