#include "stf/sequential.hpp"

#include "obs/obs.hpp"
#include "support/clock.hpp"

namespace rio::stf {

// Bodies are timed by the same span sampler as the parallel engines'
// workers (an unbound obs lens), so the task bucket is an estimate and
// untimed bodies read no clock.
support::RunStats SequentialExecutor::run(const FlowImage& image) const {
  support::RunStats stats;
  stats.workers.resize(1);
  support::WorkerStats& w = stats.workers[0];
  obs::WorkerObs ob;
  const std::size_t n = image.size();
  const DataRegistry& registry = image.registry();

  const std::uint64_t begin = support::monotonic_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const Task& task = image.task(i);
    if (!task.fn) continue;  // cost-only task: nothing to execute
    TaskContext ctx(task, registry, /*worker=*/0);
    if (ob.sampler.next()) {
      const std::uint64_t t0 = support::monotonic_ns();
      task.fn(ctx);
      ob.body(task.id, t0, support::monotonic_ns());
    } else {
      task.fn(ctx);
    }
    ++w.tasks_executed;
  }
  stats.wall_ns = support::monotonic_ns() - begin;
  ob.commit(nullptr);
  // Everything that was not task body is loop/bookkeeping overhead.
  w.buckets = ob.buckets(stats.wall_ns);
  w.tasks_timed = ob.sampler.timed();
  return stats;
}

}  // namespace rio::stf
