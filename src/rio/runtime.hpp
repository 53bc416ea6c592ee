// RIO — the decentralized in-order runtime (Section 3, Algorithm 1).
//
// Execution model:
//   * every worker unrolls the WHOLE task flow (no master thread);
//   * a deterministic Mapping decides which worker executes each task;
//   * a worker executes its own tasks strictly in flow order;
//   * for everybody else's tasks it only updates worker-private dependency
//     counters (declare_read / declare_write — one or two private writes);
//   * cross-worker synchronization happens exclusively through the two
//     shared words of each data object (data_object.hpp).
//
// One fork-join core and one owned-task path (get_* / body / terminate_*)
// serve every front end; they differ only in how a worker walks the flow:
//   * run(image, mapping)         — unrolls a compiled FlowImage: own tasks
//                                   execute, the rest are declared;
//   * run(image, plan) /
//     run_pruned(image, mapping)  — Section 3.5 pruning: a worker walks only
//                                   its own plan slice and seeds its replica
//                                   from the plan instead of declaring;
//   * run_program(reg, prog, map) — every worker executes the user program
//                                   itself (the paper's true decentralized
//                                   unrolling; nothing is ever stored).
#pragma once

#include <cstdint>
#include <vector>

#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "engine/launch.hpp"
#include "rio/data_object.hpp"
#include "rio/mapping.hpp"
#include "rio/pruning.hpp"
#include "stf/access_guard.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"
#include "stf/trace.hpp"

namespace rio::rt {

/// Per-run allocations recycled across runs of one Runtime: the per-handle
/// sync-word array, each worker's private replica array, and the per-worker
/// doorbells. Repeat runs (benches, hybrid phases, full and pruned runs
/// alike) reset these in place instead of reallocating — the task-pool
/// recycling half of the wait/notify hot-path work (docs/perf.md).
struct RunArenas {
  std::vector<SharedDataState> shared;
  std::vector<std::vector<LocalDataState>> locals;
  std::vector<support::AlignedAtomic<std::uint64_t>> bells;
};

class Runtime {
 public:
  /// Reads the Launch fields the rio backends declare (engine.hpp): workers,
  /// wait_policy, the collect_* flags, enable_guard, pin_workers, the
  /// resilience and recovery knobs and obs. The mapping is a run() argument.
  explicit Runtime(engine::Launch launch);

  /// Convenience: compiles a throwaway FlowImage and runs it under
  /// `mapping`. Callers that run one flow repeatedly should compile once and
  /// use the image overloads.
  support::RunStats run(const stf::TaskFlow& flow, const Mapping& mapping);

  /// Executes a compiled FlowImage (stf/flow_image.hpp) under `mapping`.
  /// Blocks until all tasks completed on all workers. The non-mapped path
  /// is a tight loop over the image's flat access array — just the
  /// one-or-two private writes per access the cost model promises — and
  /// the call performs no per-task allocation.
  support::RunStats run(const stf::FlowImage& image, const Mapping& mapping);

  /// Image-slice variant (hybrid phase execution): all tasks before the
  /// slice must already be complete — the hybrid runtime's phase barrier
  /// guarantees this. Task ids stay global; the mapping sees them as-is.
  support::RunStats run(const stf::ImageRange& range, const Mapping& mapping);

  /// Pruned execution through an explicit plan (rio/pruning.hpp) built for
  /// `image` and the launch's workers: each worker visits only its own
  /// tasks. Same protocol, same owned-task path as the mapped overloads.
  support::RunStats run(const stf::FlowImage& image, const PrunedPlan& plan);

  /// Cached pruned path: compiles the plan on first call for this
  /// (image, mapping) pair, replays from this runtime's plan cache
  /// afterwards. A bench loop is literally
  /// `while (...) rt.run_pruned(image, mapping);`.
  support::RunStats run_pruned(const stf::FlowImage& image,
                               const Mapping& mapping);

  /// Streaming mode: each worker runs `program` itself against a
  /// pre-registered data registry; tasks are executed or declared on the
  /// fly and never materialized. The program must be deterministic.
  support::RunStats run_program(const stf::DataRegistry& registry,
                                const stf::ProgramFn& program,
                                const Mapping& mapping);

  /// Cache misses of the run_pruned() plan cache (test hook for the
  /// "second run recompiles nothing" guarantee).
  [[nodiscard]] std::uint64_t plan_compiles() const noexcept {
    return plans_.compiles();
  }

  /// Trace of the last run (empty unless launch.collect_trace).
  [[nodiscard]] const stf::Trace& trace() const noexcept { return trace_; }

  /// Synchronization events of the last run (empty unless
  /// launch.collect_sync).
  [[nodiscard]] const stf::SyncTrace& sync_trace() const noexcept {
    return sync_trace_;
  }

  /// Replaces the launch for subsequent runs. The recycled arenas, the plan
  /// cache and an attached pool all survive: this is how one long-lived
  /// runtime serves launches that differ from run to run
  /// (engine/executor.hpp).
  void configure(const engine::Launch& launch);

  /// Uses `pool` (>= workers threads) for subsequent runs instead of
  /// spawning threads per run — amortizes thread startup for repeated
  /// fine-grained runs and for hybrid phase execution. Pass nullptr to
  /// detach. The pool must outlive the runtime's runs.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

 private:
  engine::Launch cfg_;
  stf::Trace trace_;
  stf::SyncTrace sync_trace_;
  support::ThreadPool* pool_ = nullptr;
  RunArenas arenas_;  ///< recycled across runs (never shrinks)
  PrunedPlanCache plans_;
};

}  // namespace rio::rt
