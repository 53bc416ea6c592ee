// Shared resilient body execution — used by every engine's worker loop.
//
// execute_body() is the one place where fault injection, retry-with-
// rollback and abort awareness meet. The contract:
//
//   1. an injected stall (FaultPlan::stall_*) busy-waits before the body,
//      interruptible by the abort flag (so the watchdog can drain it);
//   2. when retries are enabled, the write/readwrite/reduction spans are
//      snapshotted ONCE before the first attempt — the task already holds
//      protocol exclusivity on them, so the copy is race-free;
//   3. each attempt runs the body, then (if the injector says so) throws an
//      InjectedFault AFTER the body ran — the data really was mutated, so a
//      retry that skipped the rollback would double-apply the body;
//   4. a failed attempt with budget left restores the snapshot, pays the
//      backoff, and re-runs; an exhausted budget returns the error — wrapped
//      in TaskFailure when retries were enabled, verbatim otherwise (the
//      historical fail-fast contract).
//
// Engines keep their zero-overhead inline path when no resilience is
// configured; they call this only when `ResilienceOpts::active()`.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <utility>

#include "obs/obs.hpp"
#include "support/clock.hpp"
#include "support/fault.hpp"
#include "stf/data_registry.hpp"
#include "stf/failure.hpp"
#include "stf/task.hpp"

namespace rio::stf {

/// Resilience knobs threaded from an engine::Launch into the worker loop.
struct ResilienceOpts {
  support::RetryPolicy retry;
  support::FaultInjector* fault = nullptr;  ///< not owned; may be shared
  const std::atomic<bool>* abort = nullptr; ///< watchdog abort flag
  obs::WorkerObs* obs = nullptr;  ///< telemetry lens (null-safe); rollback
                                  ///< spans + fault/retry counters land here

  [[nodiscard]] bool active() const noexcept {
    return fault != nullptr || retry.enabled();
  }
};

/// Outcome of one resilient body execution.
struct BodyResult {
  bool ok = true;
  bool crashed = false;        ///< worker must die: record a DeathRecord
                               ///< (the caller's snapshot holds the dirty
                               ///< spans) and exit the worker loop
  std::uint32_t attempts = 1;  ///< executions performed
  std::exception_ptr error;    ///< set when !ok
};

/// Runs `task`'s body under the resilience contract above. `snapshot` is a
/// caller-owned scratch arena reused across tasks.
inline BodyResult execute_body(const Task& task, const DataRegistry& registry,
                               WorkerId worker, const ResilienceOpts& opts,
                               DataSnapshot& snapshot) {
  BodyResult result;

  if (opts.fault != nullptr) {
    const std::uint64_t stall = opts.fault->stall_ns(task.id);
    if (stall > 0) {
      if (opts.obs != nullptr) {
        opts.obs->count(obs::Counter::kFaultsInjected);
        opts.obs->instant(obs::Phase::kFaultInjected, task.id,
                          support::monotonic_ns());
      }
      support::stall_for(stall, opts.abort);
    }
  }

  const std::uint32_t max_attempts =
      opts.retry.enabled() ? opts.retry.attempts_for(task.id) : 1;
  const bool crash_possible =
      opts.fault != nullptr && opts.fault->plan().crash_armed();
  if (opts.retry.enabled() || crash_possible) {
    // Crash-armed runs snapshot even without retries: a worker death after
    // the body leaves the write set dirty, and the supervisor restores this
    // snapshot (carried out via the DeathRecord) before replaying the task.
    snapshot.clear();
    for (const Access& a : task.accesses)
      if (is_write(a.mode)) snapshot.add(registry, a.data);
  }

  for (std::uint32_t attempt = 1;; ++attempt) {
    result.attempts = attempt;
    std::exception_ptr error;
    try {
      if (task.fn) {
        TaskContext tc(task, registry, worker);
        task.fn(tc);
      }
      if (opts.fault != nullptr && opts.fault->should_throw(task.id, attempt)) {
        if (opts.obs != nullptr) {
          opts.obs->count(obs::Counter::kFaultsInjected);
          opts.obs->instant(obs::Phase::kFaultInjected, task.id,
                            support::monotonic_ns());
        }
        throw support::InjectedFault(task.id, attempt);
      }
      if (crash_possible && opts.fault->should_crash(task.id)) {
        // Permanent worker death: decided AFTER the body (the data really
        // is dirty) and instead of success — the task never publishes its
        // terminate, so dependents block until the watchdog tripwire fires.
        if (opts.obs != nullptr) {
          opts.obs->count(obs::Counter::kFaultsInjected);
          opts.obs->instant(obs::Phase::kFaultInjected, task.id,
                            support::monotonic_ns());
        }
        result.crashed = true;
        return result;
      }
      return result;  // success
    } catch (...) {
      error = std::current_exception();
    }

    const bool aborted =
        opts.abort != nullptr && opts.abort->load(std::memory_order_acquire);
    if (attempt < max_attempts && !aborted) {
      // Cold path: the two clock reads bracket rollback + backoff only when
      // a retry actually happens.
      const std::uint64_t rb0 =
          opts.obs != nullptr ? support::monotonic_ns() : 0;
      snapshot.restore(registry);
      if (opts.retry.backoff_ns > 0)
        support::stall_for(opts.retry.backoff_ns, opts.abort);
      if (opts.obs != nullptr) {
        opts.obs->span(obs::Phase::kRetryRollback, task.id, rb0,
                       support::monotonic_ns());
        opts.obs->count(obs::Counter::kRetries);
      }
      continue;
    }

    result.ok = false;
    if (opts.retry.enabled()) {
      // Terminal failure: restore too, so a failed task has NO effect on
      // its write set (the failed attempt's partial writes don't leak into
      // post-mortem state).
      snapshot.restore(registry);
      FailureReport report;
      report.task = task.id;
      report.name = task.name;
      report.worker = worker;
      report.attempts = attempt;
      result.error = std::make_exception_ptr(
          TaskFailure(std::move(report), std::move(error)));
    } else {
      result.error = std::move(error);
    }
    return result;
  }
}

}  // namespace rio::stf
