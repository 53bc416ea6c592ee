// Execution traces and their validation.
//
// A trace records, for each executed task, which worker ran it and in what
// order events happened. Validation checks the two properties the paper's
// TLA+ specification states (Appendix B): every execution respects the
// dependency DAG (sequential consistency), and no two conflicting tasks
// overlap (data-race freedom — checked via interval overlap when engines
// record timestamps). The validator is the bridge between the formal model
// (src/modelcheck) and the real runtimes: tests and `rioflow check` run
// engines with an obs::Hub recorder attached, convert its body spans with
// trace_from_hub() and feed the result here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "stf/dependency.hpp"
#include "stf/task_flow.hpp"
#include "stf/types.hpp"

namespace rio::stf {

/// One executed task occurrence.
struct TraceEvent {
  TaskId task = kInvalidTask;
  WorkerId worker = kInvalidWorker;
  std::uint64_t start_ns = 0;  ///< timestamp when the body began
  std::uint64_t end_ns = 0;    ///< timestamp when the body finished
  std::uint64_t seq = 0;       ///< execution order within the worker
};

/// One synchronization operation on a data object, recorded by the engines
/// when Launch::collect_sync is set. An ACQUIRE is the completion of a
/// dependency wait (RIO's get_read/get_write, COOR's ready dispatch); a
/// RELEASE is the publication that lets successors through (terminate_*,
/// successor release). `stamp` is drawn from one global atomic counter such
/// that every release an acquire observed carries a smaller stamp — the
/// total order the happens-before checker (src/analysis) replays.
enum class SyncKind : std::uint8_t { kAcquire, kRelease };

struct SyncEvent {
  TaskId task = kInvalidTask;
  WorkerId worker = kInvalidWorker;
  DataId data = kInvalidData;
  AccessMode mode = AccessMode::kRead;
  SyncKind kind = SyncKind::kAcquire;
  std::uint64_t stamp = 0;  ///< global publication/acquisition order
};

/// A full-run synchronization trace: acquire/release events in arbitrary
/// order (consumers sort by stamp).
class SyncTrace {
 public:
  void record(SyncEvent ev) { events_.push_back(ev); }
  [[nodiscard]] const std::vector<SyncEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  void clear() noexcept { events_.clear(); }

 private:
  std::vector<SyncEvent> events_;
};

/// Outcome of validating a trace; `ok()` plus a human-readable reason.
struct ValidationResult {
  bool valid = true;
  std::string reason;

  /// False when the engine recorded no timestamps: the data-race and
  /// dependency-order checks were SKIPPED, not passed. `reason` then says
  /// "timestamps unavailable". Structural checks (completeness, per-worker
  /// order) still ran.
  bool timing_checked = true;

  [[nodiscard]] bool ok() const noexcept { return valid; }

  /// True only when validation passed AND nothing was skipped.
  [[nodiscard]] bool fully_checked() const noexcept {
    return valid && timing_checked;
  }

  static ValidationResult failure(std::string why) {
    return {false, std::move(why), true};
  }
};

/// A full-run trace: one event per task, in arbitrary order.
class Trace {
 public:
  void record(TraceEvent ev) { events_.push_back(ev); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); }

  /// Checks completeness (every task executed exactly once), sequential
  /// consistency against `graph` (every predecessor finished before its
  /// successor started, using the start/end timestamps), in-order execution
  /// per worker when `require_worker_in_order` is set (the RunInOrder
  /// model's extra constraint), and data-race freedom (no two conflicting
  /// tasks with overlapping [start,end) intervals).
  [[nodiscard]] ValidationResult validate(const TaskFlow& flow,
                                          const DependencyGraph& graph,
                                          bool require_worker_in_order) const;

 private:
  std::vector<TraceEvent> events_;
};

/// A recorder whose run trace_from_hub() can convert: every span, in rings
/// of 3 events per task (acquire wait, body, release) plus 1 (coor's final
/// wait), so a fault-free run of `num_tasks` tasks cannot wrap them.
[[nodiscard]] obs::HubOptions trace_recorder(std::size_t num_tasks);

/// Builds the trace of the run recorded in `hub` from its body spans: one
/// event per span, walked through each worker's ring in push order, so
/// `seq` is the span's position within its worker. Refuses, with a failed
/// result naming the cause and `out` left empty, a hub with no recorder, a
/// sample stride other than 1, or any dropped event: a trace missing spans
/// would pass validate() vacuously.
[[nodiscard]] ValidationResult trace_from_hub(const obs::Hub& hub, Trace& out);

}  // namespace rio::stf
