// Cumulative-time bookkeeping for the efficiency decomposition.
//
// Section 2.3 decomposes the cumulative parallel time tau_p = p * t_p into
// three buckets: tau_{p,t} (executing tasks), tau_{p,i} (idle, waiting on a
// dependency), tau_{p,r} (runtime management). Every execution engine in
// this repository — the real RIO runtime, the centralized OoO baseline and
// the discrete-event simulator — reports its execution as a TimeBuckets
// value per worker, which metrics/ then turns into the e_p / e_r
// efficiencies of the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rio::support {

/// The three tau buckets of Section 2.3, in nanoseconds (real runtimes) or
/// virtual ticks (simulator). The decomposition identity
/// tau_p = task + idle + runtime holds by construction for the simulator
/// and up to measurement noise for the real runtimes.
struct TimeBuckets {
  std::uint64_t task_ns = 0;     ///< tau_{p,t}: inside user task bodies
  std::uint64_t idle_ns = 0;     ///< tau_{p,i}: stalled on a dependency
  std::uint64_t runtime_ns = 0;  ///< tau_{p,r}: management (everything else)

  [[nodiscard]] std::uint64_t total() const noexcept {
    return task_ns + idle_ns + runtime_ns;
  }

  TimeBuckets& operator+=(const TimeBuckets& o) noexcept {
    task_ns += o.task_ns;
    idle_ns += o.idle_ns;
    runtime_ns += o.runtime_ns;
    return *this;
  }

  friend TimeBuckets operator+(TimeBuckets a, const TimeBuckets& b) noexcept {
    a += b;
    return a;
  }
};

/// Per-worker execution statistics reported by every engine. Counts and
/// idle time are exact. On the real engines the task bucket, and with it
/// the runtime remainder, is estimated from the executed tasks whose spans
/// were timed (obs::SpanSampler); the simulators time every task.
struct WorkerStats {
  TimeBuckets buckets;
  std::uint64_t tasks_executed = 0;  ///< tasks this worker ran
  std::uint64_t tasks_timed = 0;     ///< of those, tasks whose body and
                                     ///< release were timed
  std::uint64_t tasks_skipped = 0;   ///< tasks declared-only (RIO) / n.a.
  std::uint64_t waits = 0;           ///< dependency stalls encountered
};

/// Whole-run report: per-worker stats plus the wall-clock makespan.
struct RunStats {
  std::vector<WorkerStats> workers;
  std::uint64_t wall_ns = 0;  ///< t_p: makespan of the parallel run

  [[nodiscard]] TimeBuckets cumulative() const noexcept {
    TimeBuckets sum;
    for (const auto& w : workers) sum += w.buckets;
    return sum;
  }

  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w.tasks_executed;
    return n;
  }

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers.size();
  }
};

}  // namespace rio::support
