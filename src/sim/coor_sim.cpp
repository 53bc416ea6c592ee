#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "support/assert.hpp"
#include "obs/obs.hpp"
#include "sim/fault_model.hpp"
#include "sim/simulate.hpp"

namespace rio::sim {
namespace {

std::uint64_t exec_ticks(std::uint64_t instructions, const TimeScale& scale) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(instructions) /
                   scale.instructions_per_tick));
}

}  // namespace

Report simulate_centralized(const stf::TaskFlow& flow,
                            const CentralizedParams& params,
                            const TimeScale& scale) {
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  return simulate_centralized(stf::ImageRange(image), params, scale);
}

Report simulate_centralized(const stf::FlowImage& image,
                            const CentralizedParams& params,
                            const TimeScale& scale) {
  return simulate_centralized(stf::ImageRange(image), params, scale);
}

Report simulate_centralized(const stf::ImageRange& range,
                            const CentralizedParams& params,
                            const TimeScale& scale) {
  RIO_ASSERT(params.workers > 0);
  const std::size_t n = range.size();
  const std::uint32_t p = params.workers;
  const stf::DependencyGraph graph(range);

  // Master discovery times: the master unrolls sequentially, paying a
  // per-task (+ per-access) management cost — the serialized resource of
  // cost model (1). discovery[t] is when task t is known to the runtime.
  std::vector<std::uint64_t> discovery(n, 0);
  std::uint64_t master_clock = 0;
  for (stf::TaskId t = 0; t < n; ++t) {
    master_clock += params.master_per_task +
                    params.master_per_access * range.num_accesses(t);
    discovery[t] = master_clock;
  }
  const std::uint64_t master_total = master_clock;

  // Event-driven list scheduling: a task enters the ready pool when its
  // dependencies resolved AND the master discovered it; the earliest-ready
  // task goes to the earliest-free worker. Ready times are pushed in
  // causal order (every new ready time exceeds the finish that caused it),
  // so a plain min-heap pops in global time order.
  std::vector<std::size_t> remaining(n);
  std::vector<std::uint64_t> dep_finish(n, 0);
  // Wait-cause: the predecessor whose finish defines dep_finish[t] —
  // exact in virtual time. kInvalidTask means master-discovery-bound.
  std::vector<stf::TaskId> blocker(n, stf::kInvalidTask);
  using QItem = std::pair<std::uint64_t, stf::TaskId>;  // (ready_time, task)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> ready;
  for (stf::TaskId t = 0; t < n; ++t) {
    remaining[t] = graph.in_degree(t);
    if (remaining[t] == 0) ready.emplace(discovery[t], t);
  }

  using WItem = std::pair<std::uint64_t, std::uint32_t>;  // (free_time, id)
  std::priority_queue<WItem, std::vector<WItem>, std::greater<>> free_workers;
  for (std::uint32_t w = 0; w < p; ++w) free_workers.emplace(0, w);

  std::vector<support::WorkerStats> ws(p + 1);  // + master
  std::vector<std::uint64_t> finish(n, 0);
  std::uint64_t makespan = master_total;
  std::size_t executed = 0;

  Report rep;
  SimFaults faults(params.faults, params.retry);

  // Telemetry lenses (slot p = master), virtual-tick timestamps. Phase
  // totals reproduce the ws buckets: kBody == task, kAcquireWait == idle,
  // kMgmt == runtime (worker pops; master unroll).
  obs::Hub* hub = params.obs;
  std::vector<obs::WorkerObs> obses;
  if (hub != nullptr) {
    hub->set_clock_unit(obs::ClockUnit::kTicks);
    hub->ensure_workers(p + 1);
    obses.resize(p + 1);
    for (std::uint32_t w = 0; w <= p; ++w) obses[w].bind(hub, w);
  }

  while (executed < n) {
    RIO_ASSERT_MSG(!ready.empty(), "no ready task but flow incomplete");
    const auto [ready_time, t] = ready.top();
    ready.pop();
    const auto [wfree, w] = free_workers.top();
    free_workers.pop();

    if (ready_time > wfree) ws[w].buckets.idle_ns += ready_time - wfree;
    const std::uint64_t start =
        std::max(ready_time, wfree) + params.worker_pop;
    std::uint64_t cost = exec_ticks(range.cost(t), scale);
    if (!params.worker_speed.empty()) {
      RIO_ASSERT(params.worker_speed.size() >= p);
      cost = static_cast<std::uint64_t>(
          static_cast<double>(cost) / params.worker_speed[w]);
    }
    cost += faults.extra_ticks(range.task_id(t), cost, rep);
    // A crash fault on this task: the wasted attempt + watchdog detection
    // + frontier replay extend its finish time; dependents (and the
    // makespan) wait behind it, which is how the global abort-and-resume
    // shows up in an event-driven schedule.
    const std::uint64_t recovery = faults.crash_recovery_ticks(
        range.task_id(t), cost, executed, params.crash_detect_ticks,
        params.replay_per_task, rep);
    const std::uint64_t fin = start + cost + recovery;
    finish[t] = fin;
    ws[w].buckets.runtime_ns += params.worker_pop + recovery;
    ws[w].buckets.task_ns += cost;
    ++ws[w].tasks_executed;
    ++executed;
    makespan = std::max(makespan, fin);
    free_workers.emplace(fin, w);

    if (hub != nullptr) {
      obs::WorkerObs& ob = obses[w];
      const auto id = static_cast<std::uint64_t>(range.task_id(t));
      if (ready_time > wfree) {
        // Dep-bound ready: blame the predecessor whose finish defined it;
        // discovery-bound ready is the master's serialization (no cause).
        const std::uint64_t cause =
            dep_finish[t] >= discovery[t] && blocker[t] != stf::kInvalidTask
                ? obs::make_cause(
                      static_cast<std::uint64_t>(range.task_id(blocker[t])))
                : obs::kNoCause;
        ob.span(obs::Phase::kAcquireWait, id, wfree, ready_time, cause);
        ob.count(obs::Counter::kProtocolWaits);
      }
      ob.span(obs::Phase::kMgmt, id, start - params.worker_pop, start);
      ob.span(obs::Phase::kBody, id, start, start + cost);
      if (recovery > 0)
        ob.span(obs::Phase::kMgmt, id, start + cost, fin);
      ob.count(obs::Counter::kQueuePops);
      ob.count(obs::Counter::kTasksExecuted);
    }

    for (stf::TaskId s : graph.successors(t)) {
      const std::uint64_t reach = fin + params.cross_worker_latency;
      if (reach > dep_finish[s]) {
        dep_finish[s] = reach;
        blocker[s] = t;
      }
      if (--remaining[s] == 0)
        ready.emplace(std::max(discovery[s], dep_finish[s]), s);
    }
  }

  // Trailing idle for workers that finished before the makespan.
  while (!free_workers.empty()) {
    const auto [wfree, w] = free_workers.top();
    free_workers.pop();
    ws[w].buckets.idle_ns += makespan - wfree;
    if (hub != nullptr)
      obses[w].phase_ns[static_cast<std::size_t>(
          obs::Phase::kAcquireWait)] += makespan - wfree;
  }
  // Master accounting: pure management, then idle until the end.
  ws[p].buckets.runtime_ns = master_total;
  ws[p].buckets.idle_ns = makespan - master_total;

  if (hub != nullptr) {
    obs::WorkerObs& mob = obses[p];
    mob.span(obs::Phase::kMgmt, obs::kNoTask, 0, master_total);
    mob.phase_ns[static_cast<std::size_t>(obs::Phase::kAcquireWait)] +=
        makespan - master_total;
    mob.count(obs::Counter::kQueuePushes, n);
    mob.count(obs::Counter::kWakeups, n);
    for (std::uint32_t w = 0; w <= p; ++w) obses[w].commit(hub);
    const std::uint64_t injected = rep.injected_stalls + rep.injected_throws;
    if (injected > 0)
      hub->global_counters().add(obs::Counter::kFaultsInjected, injected);
    if (rep.retried_tasks > 0)
      hub->global_counters().add(obs::Counter::kRetries, rep.retried_tasks);
    if (rep.evictions > 0)
      hub->global_counters().add(obs::Counter::kEvictions, rep.evictions);
    if (rep.tasks_replayed > 0)
      hub->global_counters().add(obs::Counter::kTasksReplayed,
                                 rep.tasks_replayed);
  }

  rep.makespan = makespan;
  rep.total_threads = p + 1;
  rep.stats.workers = std::move(ws);
  rep.stats.wall_ns = makespan;
  return rep;
}

}  // namespace rio::sim
