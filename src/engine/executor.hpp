// RioExecutor — the persistent executor behind the rio and rio-pruned
// backends.
//
// A Backend::run used to build a fresh rt::Runtime per call: W threads
// spawned and joined, the recycled RunArenas dropped, and the plan cache
// dropped with them, so every rio-pruned run recompiled its plan. One
// RioExecutor, shared by both backends, keeps resident between calls:
//   * a support::ThreadPool of W parked threads, created on first use and
//     rebuilt only when a launch asks for more workers than it has or for
//     a different pinning (an unpinned launch never inherits a pinned
//     pool thread); a launch with fewer workers — run_supervised's W -> W-1
//     eviction — reuses it and leaves the extra threads idle;
//   * one rt::Runtime with its RunArenas and its one-entry PrunedPlanCache,
//     reconfigured from each call's Launch.
//
// Backend::run stays const and safe to share: run() try-locks the executor,
// and a caller that finds it busy — another thread, or a task body calling
// back into the same backend — runs on a private one-shot runtime with
// freshly spawned threads, exactly the pre-executor behaviour.
#pragma once

#include <atomic>
#include <memory>

#include "engine/engine.hpp"
#include "rio/runtime.hpp"
#include "support/thread_pool.hpp"

namespace rio::engine {

class RioExecutor {
 public:
  /// How a worker walks the image: full unroll (rio) or its pruned plan
  /// slice (rio-pruned, Section 3.5).
  enum class Walk { kFull, kPruned };

  RioExecutor();

  /// Runs `image` under an already validated `launch`. Fills the Outcome's
  /// stats, makespan, trace, sync and plan_compiles (the plan-cache misses
  /// paid by THIS call: 0 on a warm hit, 1 on a miss). Failure semantics
  /// are rt::Runtime's; the executor stays usable after any of them.
  Outcome run(const stf::FlowImage& image, const Launch& launch, Walk walk);

 private:
  std::atomic<bool> busy_{false};  // the try-lock
  std::unique_ptr<support::ThreadPool> pool_;
  bool pool_pinned_ = false;
  rt::Runtime runtime_;
};

}  // namespace rio::engine
