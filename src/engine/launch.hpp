// engine::Launch — the one run configuration of every engine.
//
// rt::Runtime, coor::Runtime and hybrid::Runtime are all built from a
// Launch, and the registry's backends (engine.hpp) pass theirs straight
// through, so a run knob is declared exactly once. Each engine reads only
// the fields its backend's Capabilities declare; a knob the backend cannot
// honour must stay at its default or Backend::run() refuses the launch
// (UnsupportedLaunch). Defaults favour correctness on any machine: the
// default wait policy spins in bounded bursts for 5 µs and then yields, so
// it survives oversubscription and still notices a cross-worker handoff
// within about one pause (support/wait.hpp). Benches flip the knobs.
//
// Header-only and free of engine code, so the runtimes include it without
// depending on the registry.
#pragma once

#include <cstdint>

#include "support/fault.hpp"
#include "support/wait.hpp"
#include "coor/ready_queue.hpp"
#include "coor/ready_ring.hpp"
#include "rio/mapping.hpp"
#include "stf/frontier.hpp"

namespace rio::obs {
class Hub;
}

namespace rio::engine {

struct Launch {
  std::uint32_t workers = 2;  ///< task-executing workers (coor and hybrid's
                              ///< dynamic phases add one master thread)
  support::WaitPolicy wait_policy = support::WaitPolicy::kSpinYield;
  ///< uses_wait_policy backends only. coor's workers read it only while
  ///< they pop the ring; the locked queues always block on a condvar.
  coor::SchedulerKind scheduler = coor::SchedulerKind::kFifo;
  ///< uses_scheduler backends only
  coor::QueueKind queue = coor::QueueKind::kRing;
  ///< uses_queue backends only. kRing (the default) selects the wait-free
  ///< MPMC ready ring for fifo scheduling; kLifo, kPriority and kLocality
  ///< keep the locked queues whatever this says (coor/ready_ring.hpp).
  ///< kLocked forces the mutex + condvar deque for fifo too. Hybrid's
  ///< dynamic phases run under the default.
  bool work_stealing = false;  ///< uses_scheduler backends only (locality
                               ///< mode: steal from siblings)
  rt::Mapping mapping{};  ///< full static mapping (needs_mapping)
  rt::PartialMapping partial{};  ///< partial mapping (partial_mapping
                                 ///< backends); empty = the backend's
                                 ///< default 16-task alternation
  bool collect_stats = true;   ///< fill the tau buckets. Counts and stalls
                               ///< are exact (2 clock reads per stall);
                               ///< body and release are estimated from
                               ///< about 1 executed task in 64 (3 clock
                               ///< reads each; every task once bodies run
                               ///< 2 µs or longer). See tasks_timed.
  bool collect_sync = false;   ///< supports_sync backends only: acquire/
                               ///< release events for the happens-before
                               ///< checker (src/analysis)
  bool enable_guard = false;   ///< supports_guard backends only: dynamic
                               ///< data-race detection
  bool pin_workers = false;    ///< pin worker w (and a master) to logical
                               ///< CPU w mod #cpus

  // Resilience (docs/robustness.md), supports_faults / supports_watchdog
  // backends only. All default-off: the fast path is unchanged.
  support::RetryPolicy retry{};  ///< max_attempts > 1: retry + rollback
  support::FaultInjector* fault = nullptr;  ///< not owned
  std::uint64_t watchdog_ns = 0;  ///< > 0: fail the run with
                                  ///< stf::StallError after this no-progress
                                  ///< window instead of hanging

  // Recovery (docs/robustness.md "worker loss"), supports_recovery backends
  // only. Both borrowed, both optional, both indexed by global task id.
  // `resume`: tasks marked done in the frontier replay as protocol no-ops.
  // `checkpoint`: live completion board this run marks into (the caller
  // sizes it via reset()); a later attempt resumes from its capture().
  // Crash-armed fault plans auto-arm a default watchdog so a worker death
  // always escalates as stf::WorkerLost instead of hanging.
  const stf::Frontier* resume = nullptr;
  stf::CompletionBoard* checkpoint = nullptr;

  obs::Hub* obs = nullptr;  ///< supports_obs backends only; not owned.
                            ///< Null = telemetry off: no counters, no
                            ///< recorder, zero allocation on that path.
};

}  // namespace rio::engine
