#include "stf/dependency.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "support/assert.hpp"
#include "stf/dep_scanner.hpp"
#include "stf/flow_image.hpp"

namespace rio::stf {

template <typename Accesses>
void DependencyGraph::scan(std::size_t n, std::size_t num_data,
                           Accesses&& accesses) {
  preds_.resize(n);
  succs_.resize(n);

  // Single pass through the shared dependency scanner (dep_scanner.hpp),
  // which implements the sequential-consistency bookkeeping of Section 2.1
  // plus the commuting-reduction extension.
  DependencyScanner scanner(num_data);
  std::vector<TaskId> scratch;
  for (TaskId t = 0; t < n; ++t) {
    const auto [begin, end] = accesses(t);
    scanner.next(begin, end, t, scratch);
    // Self-edges are impossible: state updates happen after dep collection.
    preds_[t] = scratch;
    for (TaskId p : scratch) {
      RIO_DEBUG_ASSERT(p < t);
      succs_[p].push_back(t);
    }
    num_edges_ += scratch.size();
  }
}

DependencyGraph::DependencyGraph(const TaskFlow& flow) {
  scan(flow.num_tasks(), flow.num_data(), [&](TaskId t) {
    const AccessList& acc = flow.task(t).accesses;
    return std::pair(acc.begin(), acc.end());
  });
}

DependencyGraph::DependencyGraph(const ImageRange& range) {
  scan(range.size(), range.num_data(), [&](TaskId t) {
    return std::pair(range.acc_begin(t), range.acc_end(t));
  });
}

std::uint64_t DependencyGraph::critical_path_cost(const TaskFlow& flow) const {
  const std::size_t n = num_tasks();
  std::vector<std::uint64_t> finish(n, 0);
  std::uint64_t best = 0;
  // Task ids are already a topological order (edges only point forward).
  for (TaskId t = 0; t < n; ++t) {
    std::uint64_t start = 0;
    for (TaskId p : preds_[t]) start = std::max(start, finish[p]);
    const std::uint64_t cost = std::max<std::uint64_t>(flow.task(t).cost, 1);
    finish[t] = start + cost;
    best = std::max(best, finish[t]);
  }
  return best;
}

std::vector<std::uint64_t> DependencyGraph::bottom_levels(
    const TaskFlow& flow) const {
  const std::size_t n = num_tasks();
  std::vector<std::uint64_t> level(n, 0);
  // Reverse topological order (ids are topological).
  for (std::size_t i = n; i-- > 0;) {
    const auto t = static_cast<TaskId>(i);
    std::uint64_t best = 0;
    for (TaskId s : succs_[t]) best = std::max(best, level[s]);
    level[t] = best + std::max<std::uint64_t>(flow.task(t).cost, 1);
  }
  return level;
}

std::size_t DependencyGraph::max_ready_width() const {
  const std::size_t n = num_tasks();
  std::vector<std::size_t> indeg(n);
  for (TaskId t = 0; t < n; ++t) indeg[t] = preds_[t].size();

  // Peel the DAG level by level; the widest level bounds usable parallelism
  // for unit-cost tasks.
  std::vector<TaskId> frontier;
  for (TaskId t = 0; t < n; ++t)
    if (indeg[t] == 0) frontier.push_back(t);

  std::size_t width = frontier.size();
  std::vector<TaskId> next;
  while (!frontier.empty()) {
    next.clear();
    for (TaskId t : frontier) {
      for (TaskId s : succs_[t]) {
        if (--indeg[s] == 0) next.push_back(s);
      }
    }
    width = std::max(width, next.size());
    frontier.swap(next);
  }
  return width;
}

}  // namespace rio::stf
