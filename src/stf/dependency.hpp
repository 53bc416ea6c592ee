// Dependency analysis: from implicit STF order to an explicit DAG.
//
// Sequential consistency (Section 2.1) requires every read to happen after
// all earlier writes to the same data, and every write after all earlier
// reads *and* writes. Scanning the flow once with per-data last-writer /
// readers-since-write state yields the exact dependency DAG. The DAG is
// what the centralized OoO runtime schedules from, what the simulator
// replays, and what the trace validator checks executions against — RIO
// itself never materializes it (that is the whole point of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "stf/task_flow.hpp"
#include "stf/types.hpp"

namespace rio::stf {

class ImageRange;  // flow_image.hpp

/// Explicit task DAG derived from a flow. Edges point from a task to the
/// tasks that must wait for it (predecessor -> successor). When built from
/// an ImageRange, node indices are positions WITHIN the range.
class DependencyGraph {
 public:
  /// Scans `flow` once (O(tasks + edges)) and builds the DAG.
  explicit DependencyGraph(const TaskFlow& flow);

  /// Compiled-image variant: the same scan over the image's flat access
  /// array, never touching a Task record. Dependencies are derived within
  /// the range only (the hybrid phase barrier guarantees everything before
  /// it is complete).
  explicit DependencyGraph(const ImageRange& range);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return preds_.size();
  }

  /// Direct predecessors (deduplicated, ascending TaskId).
  [[nodiscard]] const std::vector<TaskId>& predecessors(TaskId t) const {
    return preds_[t];
  }

  /// Direct successors (ascending TaskId).
  [[nodiscard]] const std::vector<TaskId>& successors(TaskId t) const {
    return succs_[t];
  }

  [[nodiscard]] std::size_t in_degree(TaskId t) const {
    return preds_[t].size();
  }

  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Length (sum of task costs) of the longest dependency chain; the
  /// virtual-time lower bound on any schedule's makespan. Tasks with zero
  /// cost count as cost 1 so the chain length is still meaningful.
  [[nodiscard]] std::uint64_t critical_path_cost(const TaskFlow& flow) const;

  /// Bottom level of every task: length (in task costs, >= 1 each) of the
  /// longest dependency chain STARTING at the task. The classic critical-
  /// path list-scheduling priority: tasks on long chains first.
  [[nodiscard]] std::vector<std::uint64_t> bottom_levels(
      const TaskFlow& flow) const;

  /// Width proxy: maximum number of tasks with no unfinished predecessors
  /// when tasks complete in topological order (a cheap parallelism gauge
  /// used by tests and workload diagnostics).
  [[nodiscard]] std::size_t max_ready_width() const;

 private:
  /// The one scan loop; `accesses(t)` yields task t's {begin, end} span.
  template <typename Accesses>
  void scan(std::size_t n, std::size_t num_data, Accesses&& accesses);

  std::vector<std::vector<TaskId>> preds_;
  std::vector<std::vector<TaskId>> succs_;
  std::size_t num_edges_ = 0;
};

}  // namespace rio::stf
