// COOR — a centralized out-of-order STF runtime (the baseline model).
//
// This is the execution model of Figure 1, the one StarPU and its peers use
// within a shared-memory node: a MASTER thread unrolls the task flow,
// derives dependencies from access modes, and dispatches tasks whose
// dependencies are resolved to a pool of WORKER threads. Ready tasks can be
// executed in any order (out-of-order), which buys scheduling freedom at
// the price of:
//
//   * per-task bookkeeping allocated for the whole flow (space linear in
//     the number of tasks — Section 3.1);
//   * a serialization point at the master/queue (cost model (1), the
//     bottleneck that collapses pipelining efficiency for fine tasks);
//   * one thread that executes no tasks, capping runtime efficiency at
//     (p-1)/p (Section 5.2).
//
// The implementation is intentionally lean — it under-estimates StarPU's
// per-task cost, so wherever COOR shows a centralized bottleneck, StarPU's
// would be at least as severe.
#pragma once

#include <cstdint>
#include <vector>

#include "support/align.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "engine/launch.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"
#include "stf/trace.hpp"

namespace rio::coor {

class Runtime {
 public:
  /// Reads the Launch fields the coor backend declares (engine.hpp):
  /// workers, wait_policy, scheduler, queue, work_stealing, the collect_*
  /// flags, enable_guard, pin_workers, the resilience and recovery knobs
  /// and obs (worker slots 0..p-1, master slot p).
  explicit Runtime(engine::Launch launch);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `flow` to completion. The calling thread becomes the master;
  /// stats.workers holds `workers` entries followed by one entry for the
  /// master (whose time is management/idle only, never task time).
  /// Internally compiles a throwaway FlowImage — callers that run the same
  /// flow repeatedly should compile once and use the image overloads.
  support::RunStats run(const stf::TaskFlow& flow);

  /// Fast replay from a compiled image: the master's incremental unroll and
  /// the locality router walk the image's flat metadata (stf/flow_image.hpp)
  /// instead of Task records. Compile once, run many times.
  support::RunStats run(const stf::FlowImage& image);

  /// Image-slice variant for hybrid phase execution: all tasks preceding
  /// the slice must already be complete (dependencies are derived within
  /// the slice only).
  support::RunStats run(const stf::ImageRange& range);

  [[nodiscard]] const stf::Trace& trace() const noexcept { return trace_; }

  /// Synchronization events of the last run (empty unless
  /// launch.collect_sync).
  [[nodiscard]] const stf::SyncTrace& sync_trace() const noexcept {
    return sync_trace_;
  }

  /// Replaces the launch for subsequent runs. The reduction-lock array and
  /// an attached pool survive: this is how one long-lived runtime serves
  /// launches that differ from run to run (engine/executor.hpp).
  void configure(const engine::Launch& launch);

  /// Uses `pool` (>= workers + 1 threads: workers + master) for
  /// subsequent runs instead of spawning threads per run. Pass nullptr to
  /// detach. The pool must outlive the runtime's runs.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

 private:
  engine::Launch cfg_;
  stf::Trace trace_;
  stf::SyncTrace sync_trace_;
  support::ThreadPool* pool_ = nullptr;
  // Per-data reduction locks, recycled across runs (grown, never shrunk).
  std::vector<support::AlignedAtomic<std::uint32_t>> reduction_locks_;
};

}  // namespace rio::coor
