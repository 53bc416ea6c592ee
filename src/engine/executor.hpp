// engine::Executor — the persistent executor behind every real backend.
//
// A Backend::run used to build a fresh runtime per call: its threads
// spawned and joined, its recycled arenas dropped, and rio's plan cache
// dropped with them, so every rio-pruned run recompiled its plan. One
// Executor<Runtime> keeps resident between calls:
//   * a support::ThreadPool of parked threads, created on first use and
//     rebuilt only when a launch needs more threads than it has or a
//     different pinning (an unpinned launch never inherits a pinned pool
//     thread); a launch that needs fewer — run_supervised's W -> W-1
//     eviction — reuses it and leaves the extra threads idle;
//   * one Runtime (rt::Runtime, coor::Runtime or hybrid::Runtime) with its
//     recycled arenas, and rio's one-entry PrunedPlanCache, reconfigured
//     from each call's Launch.
// rio and rio-pruned share one Executor<rt::Runtime>; coor and hybrid own
// one each (backends.cpp).
//
// Backend::run stays const and safe to share: run() try-locks the executor,
// and a caller that finds it busy — another thread, or a task body calling
// back into the same backend — runs on a private one-shot runtime with
// freshly spawned threads, exactly the pre-executor behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "engine/engine.hpp"
#include "support/thread_pool.hpp"

namespace rio::engine {

/// `Runtime` is built from a Launch and provides configure(const Launch&)
/// and attach_pool(support::ThreadPool*).
template <typename Runtime>
class Executor {
 public:
  Executor() : runtime_(Launch{}) {}

  /// Runs `body(runtime)`, which returns the call's Outcome, under an
  /// already validated `launch` on a pool of at least `threads` threads
  /// that the run pins iff `pinned`. Failure semantics are the runtime's;
  /// the executor stays usable after any of them.
  template <typename Body>
  Outcome run(const Launch& launch, std::uint32_t threads, bool pinned,
              Body&& body) {
    if (busy_.exchange(true, std::memory_order_acquire)) {
      Runtime one_shot(launch);
      return body(one_shot);
    }
    struct Unlock {
      std::atomic<bool>& busy;
      ~Unlock() { busy.store(false, std::memory_order_release); }
    } unlock{busy_};

    if (!pool_ || pool_->size() < threads || pool_pinned_ != pinned) {
      pool_.reset();  // join the old threads before spawning the new ones
      pool_ = std::make_unique<support::ThreadPool>(threads);
      pool_pinned_ = pinned;
    }
    runtime_.configure(launch);
    runtime_.attach_pool(pool_.get());
    return body(runtime_);
  }

 private:
  std::atomic<bool> busy_{false};  // the try-lock
  std::unique_ptr<support::ThreadPool> pool_;
  bool pool_pinned_ = false;
  Runtime runtime_;
};

}  // namespace rio::engine
