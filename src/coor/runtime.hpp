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
// would be at least as severe. An optional artificial per-task master
// overhead knob lets benches calibrate it against published StarPU costs.
#pragma once

#include <cstdint>

#include <memory>

#include "support/fault.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "support/wait.hpp"
#include "coor/ready_queue.hpp"
#include "coor/ready_ring.hpp"
#include "stf/flow_image.hpp"
#include "stf/frontier.hpp"
#include "stf/task_flow.hpp"
#include "stf/trace.hpp"

namespace rio::obs {
class Hub;
}

namespace rio::coor {

struct Config {
  std::uint32_t num_workers = 2;  ///< task-executing threads (master extra)
  SchedulerKind scheduler = SchedulerKind::kFifo;
  QueueKind queue = QueueKind::kLocked;  ///< central ready-queue impl;
                                         ///< kRing applies to fifo/lifo
                                         ///< only (locked fallback else)
  support::WaitPolicy wait_policy = support::WaitPolicy::kSpinYield;
  ///< how ring consumers wait when idle (ignored by the locked queue,
  ///< whose condvar always blocks)
  bool work_stealing = false;     ///< locality mode: steal from siblings
  std::uint64_t master_overhead_ns = 0;  ///< artificial per-task master cost
                                         ///< (0 = just our real cost)
  bool collect_stats = true;
  bool collect_trace = false;
  bool collect_sync = false;  ///< record acquire/release sync events for
                              ///< the happens-before checker (src/analysis)
  bool enable_guard = false;
  bool pin_workers = false;  ///< pin workers (and master) to logical CPUs

  // Resilience (docs/robustness.md). All default-off: the fast path is
  // byte-identical to the pre-resilience runtime.
  support::RetryPolicy retry;  ///< max_attempts > 1 enables retry+rollback
  support::FaultInjector* fault = nullptr;  ///< deterministic fault
                                            ///< injection (not owned)
  std::uint64_t watchdog_ns = 0;  ///< > 0: monitor thread fails the run
                                  ///< with stf::StallError after this
                                  ///< no-progress window instead of hanging

  // Recovery (docs/robustness.md "worker loss"): same contract as
  // rt::Config — `resume` replays frontier-done tasks as completions
  // without re-running bodies, `checkpoint` is the live done bitmap.
  const stf::Frontier* resume = nullptr;
  stf::CompletionBoard* checkpoint = nullptr;

  obs::Hub* obs = nullptr;  ///< telemetry hub (docs/observability.md); not
                            ///< owned. Worker slots 0..p-1, master slot p.
};

class Runtime {
 public:
  explicit Runtime(Config cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `flow` to completion. The calling thread becomes the master;
  /// stats.workers holds num_workers entries followed by one entry for the
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

  /// Synchronization events of the last run (empty unless cfg.collect_sync).
  [[nodiscard]] const stf::SyncTrace& sync_trace() const noexcept {
    return sync_trace_;
  }

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Uses `pool` (>= num_workers + 1 threads: workers + master) for
  /// subsequent runs instead of spawning threads per run.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

  // Recycled per-run task-node pool + reduction-lock array (pimpl: the node
  // type is internal to runtime.cpp, which defines and uses the struct).
  // Repeated runs on the same Runtime reuse the arena instead of
  // reallocating linear-in-tasks bookkeeping.
  struct NodeArena;

 private:
  Config cfg_;
  stf::Trace trace_;
  stf::SyncTrace sync_trace_;
  support::ThreadPool* pool_ = nullptr;
  std::unique_ptr<NodeArena> arena_;
};

}  // namespace rio::coor
