// mc::impl — implementation-level model checking of the real protocol code.
//
// spec.hpp enumerates the paper's TLA+ *specifications*; this module
// enumerates the interleavings of the *implementation*: the Algorithm 2
// routines of src/rio/data_object.hpp (driven by the full and the pruned
// rio unroll alike), and COOR's dependency-counter protocol
// (src/coor/sync_ops.hpp) — the very same template functions production
// builds inline to raw atomics — instantiated with a checker-instrumented
// word type (the proto:: seam, src/rio/proto.hpp) and driven by a
// controlled scheduler that runs exactly one worker thread between any two
// shared-word operations.
//
// The search is a stateless depth-first enumeration over schedules with
// dynamic partial-order reduction: sleep sets plus happens-before-based
// backtrack points computed from analysis::VectorClocks. Interleavings are
// explored at shared-word-operation granularity under sequential
// consistency (weak-memory reorderings are TSan's job, not this checker's;
// see docs/protocol.md).
//
// Checked on every explored interleaving:
//   * refinement — each task start satisfies the STFSpec guard (every
//     earlier conflicting task already terminated), the same guard
//     mc::check_stf enumerates;
//   * in-order window invariants (rio / rio-pruned) — at task start each
//     shared word holds exactly the value the sequential prefix dictates;
//   * deadlock freedom — a stuck non-final state is reported with its
//     schedule;
//   * lost-wakeup freedom (kBlock policy) — a worker parked on a word
//     whose value has already moved on means a store was not followed by
//     the notify the seam contract requires.
//
// Flows are capped at 64 tasks (states pack into one machine word, like
// spec.hpp) and 4 virtual workers. A violation comes with a replayable
// schedule witness: replay() re-executes it deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/wait.hpp"
#include "rio/mapping.hpp"
#include "stf/task_flow.hpp"

namespace rio::mc::impl {

/// Which execution model's protocol code to run under the scheduler.
enum class EngineKind : std::uint8_t { kRio, kRioPruned, kCoor };

constexpr const char* to_string(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::kRio: return "rio";
    case EngineKind::kRioPruned: return "rio-pruned";
    case EngineKind::kCoor: return "coor";
  }
  return "?";
}

/// The ready-queue model kCoor runs under. kRing checks the real ReadyRingT
/// code (CAS claims, doorbell-pair parking) instantiated on the
/// instrumented word type: coor's fifo queue, what `rioflow verify` checks.
/// kOneStep models a queue as one atomic push/pop step, which keeps the
/// exhaustive two-worker checks of the dependency counters small.
enum class CoorQueue : std::uint8_t { kOneStep, kRing };

struct Options {
  EngineKind engine = EngineKind::kRio;
  std::uint32_t workers = 2;  ///< virtual workers (<= 4; coor adds a master)
  support::WaitPolicy policy = support::WaitPolicy::kBlock;
  CoorQueue queue = CoorQueue::kOneStep;  ///< ignored by the rio engines
  bool dpor = true;           ///< false: naive full enumeration (tests)
  int max_preemptions = -1;   ///< bounded search; < 0 explores everything
  std::uint64_t max_interleavings = 200'000;  ///< exploration budget
  std::uint64_t max_steps_per_run = 1'000'000;  ///< runaway-schedule guard
  /// Deliberately broken shim for the lost-wakeup regression test: every
  /// proto::notify becomes a no-op, so a kBlock waiter that parks before
  /// the publish is never woken.
  bool drop_notify = false;

  /// Recovery verification (rioflow verify --recover): model the eviction
  /// protocol of engine::run_supervised. Phase 1 explores the run with the
  /// worker executing `crash_task` dying right after that task's body —
  /// its terminate is never published, exactly the production crash fault
  /// — accepting the resulting quiescent states (the loss the supervisor
  /// detects) while still checking refinement, the window invariants and
  /// lost-wakeup freedom up to the loss, and collecting every reachable
  /// completion frontier. Phase 2 then exhaustively explores the RESUMED
  /// configuration — workers-1 threads under the rt::mapping::evict
  /// rewrite — which is protocol-identical to the real resume (replayed
  /// tasks walk the full acquire/terminate ops, only their bodies are
  /// skipped), proving the evicted run refines STF and is deadlock-free
  /// for ANY captured frontier. Requires workers >= 2.
  bool recover = false;
  std::uint64_t crash_task = 0;  ///< the task whose executor dies
};

/// One verification outcome. `witness` is a schedule — the thread index
/// granted at each scheduling point (for coor, index `workers` is the
/// master) — and replays deterministically through replay().
struct Result {
  std::uint64_t explored = 0;   ///< complete interleavings executed
  std::uint64_t pruned = 0;     ///< branches skipped (sleep sets / bound)
  std::uint64_t steps = 0;      ///< total shared-word operations scheduled
  bool truncated = false;       ///< hit max_interleavings / step budget

  bool deadlock_free = true;
  bool lost_wakeup_free = true;
  bool refines_stf = true;      ///< STFSpec guard held at every task start
  bool in_order = true;         ///< window invariant held (rio engines)

  std::string violation;        ///< first violation, human readable
  std::string violation_kind;   ///< deadlock|lost-wakeup|refinement|in-order
  std::vector<std::uint32_t> witness;  ///< schedule reaching the violation
  double seconds = 0.0;
  /// Recovery mode: distinct completion frontiers observed across every
  /// explored crash interleaving (each one a supervisor capture point the
  /// resumed configuration was verified against).
  std::uint64_t frontiers = 0;

  [[nodiscard]] bool ok() const noexcept {
    return deadlock_free && lost_wakeup_free && refines_stf && in_order;
  }
};

/// Explores the interleaving space of `flow` under `mapping` (ignored by
/// kCoor, which schedules dynamically). Requires flow.num_tasks() <= 64,
/// no reduction accesses, and opts.workers in [1, 4].
Result verify(const stf::TaskFlow& flow, const rt::Mapping& mapping,
              const Options& opts);

/// Deterministically re-executes one schedule (e.g. a violation witness)
/// and checks just that interleaving. explored is 1 on a complete replay.
Result replay(const stf::TaskFlow& flow, const rt::Mapping& mapping,
              const Options& opts, const std::vector<std::uint32_t>& schedule);

}  // namespace rio::mc::impl
