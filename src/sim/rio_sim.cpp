#include <algorithm>
#include <cmath>
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

Report simulate_decentralized(const stf::TaskFlow& flow,
                              const rt::Mapping& mapping,
                              const DecentralizedParams& params,
                              const TimeScale& scale) {
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  return simulate_decentralized(stf::ImageRange(image), mapping, params,
                                scale);
}

Report simulate_decentralized(const stf::FlowImage& image,
                              const rt::Mapping& mapping,
                              const DecentralizedParams& params,
                              const TimeScale& scale) {
  return simulate_decentralized(stf::ImageRange(image), mapping, params,
                                scale);
}

Report simulate_decentralized(const stf::ImageRange& range,
                              const rt::Mapping& mapping,
                              const DecentralizedParams& params,
                              const TimeScale& scale) {
  RIO_ASSERT(params.workers > 0 && mapping.valid());
  const std::size_t n = range.size();
  const std::uint32_t p = params.workers;
  const stf::DependencyGraph graph(range);

  // Worker cursors are expressed as shared_prefix + per-worker offset:
  // every worker pays the same skip cost for a foreign task, so the skip
  // contribution is a global prefix sum S and only deviations (own tasks,
  // stalls) are per-worker. This makes the scan O(n), independent of p.
  std::uint64_t prefix = 0;                 // S(t): skip cost of tasks < t
  std::vector<std::int64_t> delta(p, 0);    // cursor_w = S(t) + delta_w
  std::vector<std::uint64_t> finish(n, 0);
  std::vector<support::WorkerStats> ws(p);
  std::vector<std::uint64_t> own_skip(p, 0);  // skip cost of own tasks

  Report rep;
  SimFaults faults(params.faults, params.retry);

  // Telemetry lenses: timestamps are virtual ticks, same schema as the real
  // runtimes (docs/observability.md). Phase totals reproduce the ws buckets
  // exactly: kBody == task, kAcquireWait == idle, kMgmt == runtime.
  obs::Hub* hub = params.obs;
  std::vector<obs::WorkerObs> obses;
  if (hub != nullptr) {
    hub->set_clock_unit(obs::ClockUnit::kTicks);
    hub->ensure_workers(p);
    obses.resize(p);
    for (std::uint32_t w = 0; w < p; ++w) obses[w].bind(hub, w);
  }

  for (stf::TaskId t = 0; t < n; ++t) {
    const auto num_acc = static_cast<std::uint64_t>(range.num_accesses(t));
    const std::uint64_t skip_cost =
        params.pruned ? 0
                      : params.skip_per_task + params.skip_per_access * num_acc;
    const stf::WorkerId w = mapping(range.task_id(t));
    RIO_ASSERT_MSG(w < p, "mapping out of range for simulated workers");

    const std::uint64_t own_cost =
        params.own_per_task + params.own_per_access * num_acc;
    std::uint64_t cost = exec_ticks(range.cost(t), scale);
    if (!params.worker_speed.empty()) {
      RIO_ASSERT(params.worker_speed.size() >= p);
      cost = static_cast<std::uint64_t>(
          static_cast<double>(cost) / params.worker_speed[w]);
    }
    cost += faults.extra_ticks(range.task_id(t), cost, rep);
    // A crash fault aborts the run globally: the owner pays the wasted
    // attempt + detection + frontier replay inside its finish time, every
    // other worker stalls for the same window (added to the shared prefix
    // below, excluded from the owner's own_skip so it is not charged
    // twice).
    const std::uint64_t recovery = faults.crash_recovery_ticks(
        range.task_id(t), cost, t, params.crash_detect_ticks,
        params.replay_per_task, rep);

    const auto arrival = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(prefix) + delta[w]);
    const std::uint64_t after_overhead = arrival + own_cost;
    std::uint64_t dep_ready = 0;
    stf::TaskId blocker = stf::kInvalidTask;  // argmax predecessor = exact cause
    for (stf::TaskId pr : graph.predecessors(t)) {
      std::uint64_t ready_at = finish[pr];
      if (params.cross_worker_latency > 0 &&
          mapping(range.task_id(pr)) != w)
        ready_at += params.cross_worker_latency;
      if (ready_at > dep_ready) {
        dep_ready = ready_at;
        blocker = pr;
      }
    }
    const std::uint64_t start = std::max(after_overhead, dep_ready);
    const std::uint64_t fin = start + cost + recovery;
    finish[t] = fin;

    ws[w].buckets.task_ns += cost;
    ws[w].buckets.runtime_ns += own_cost + recovery;
    if (start > after_overhead) {
      ws[w].buckets.idle_ns += start - after_overhead;
      ++ws[w].waits;
    }
    ++ws[w].tasks_executed;
    own_skip[w] += skip_cost;

    if (hub != nullptr) {
      obs::WorkerObs& ob = obses[w];
      const auto id = static_cast<std::uint64_t>(range.task_id(t));
      ob.span(obs::Phase::kMgmt, id, arrival, after_overhead);
      if (start > after_overhead) {
        // Dep-bound start: the argmax predecessor is the exact cause.
        const std::uint64_t cause =
            blocker == stf::kInvalidTask
                ? obs::kNoCause
                : obs::make_cause(
                      static_cast<std::uint64_t>(range.task_id(blocker)));
        ob.span(obs::Phase::kAcquireWait, id, after_overhead, start, cause);
        ob.count(obs::Counter::kProtocolWaits);
      }
      ob.span(obs::Phase::kBody, id, start, start + cost);
      if (recovery > 0)
        ob.span(obs::Phase::kMgmt, id, start + cost, fin);
      ob.count(obs::Counter::kTasksExecuted);
    }

    prefix += skip_cost + recovery;  // S(t+1); recovery stalls everyone
    own_skip[w] += recovery;         // ...but the owner already paid in fin
    delta[w] = static_cast<std::int64_t>(fin) -
               static_cast<std::int64_t>(prefix);
  }

  // Foreign-task skip costs are runtime management; a worker pays the
  // global prefix minus the skip cost of its own tasks.
  for (std::uint32_t w = 0; w < p; ++w) {
    ws[w].buckets.runtime_ns += prefix - own_skip[w];
    ws[w].tasks_skipped = n - ws[w].tasks_executed;
    if (params.pruned) ws[w].tasks_skipped = 0;
  }

  // Makespan and trailing idle (workers that finish early wait for the
  // slowest — exactly the tau_p = p * t_p accounting of Section 2.3).
  std::uint64_t makespan = 0;
  for (std::uint32_t w = 0; w < p; ++w) {
    const auto cursor = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(prefix) + delta[w]);
    makespan = std::max(makespan, cursor);
  }
  for (std::uint32_t w = 0; w < p; ++w) {
    const auto cursor = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(prefix) + delta[w]);
    ws[w].buckets.idle_ns += makespan - cursor;
  }

  if (hub != nullptr) {
    for (std::uint32_t w = 0; w < p; ++w) {
      obs::WorkerObs& ob = obses[w];
      // Foreign-task skip management and trailing idle have no span of their
      // own; fold them straight into the phase totals so the tick identity
      // (kBody + kAcquireWait + kMgmt == makespan per worker) holds exactly.
      const auto cursor = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(prefix) + delta[w]);
      ob.phase_ns[static_cast<std::size_t>(obs::Phase::kMgmt)] +=
          prefix - own_skip[w];
      ob.phase_ns[static_cast<std::size_t>(obs::Phase::kAcquireWait)] +=
          makespan - cursor;
      if (ws[w].tasks_skipped > 0)
        ob.count(obs::Counter::kTasksSkipped, ws[w].tasks_skipped);
      ob.commit(hub);
    }
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
  rep.total_threads = p;
  rep.stats.workers = std::move(ws);
  rep.stats.wall_ns = makespan;
  return rep;
}

std::uint64_t ideal_makespan(const stf::TaskFlow& flow,
                             const stf::DependencyGraph& graph,
                             std::uint32_t workers, const TimeScale& scale) {
  RIO_ASSERT(workers > 0);
  std::uint64_t total = 0;
  for (const stf::Task& t : flow.tasks()) total += exec_ticks(t.cost, scale);
  const std::uint64_t balanced = (total + workers - 1) / workers;
  // Critical path in ticks: rescale task costs the same way.
  std::uint64_t cp = 0;
  {
    std::vector<std::uint64_t> fin(flow.num_tasks(), 0);
    for (stf::TaskId t = 0; t < flow.num_tasks(); ++t) {
      std::uint64_t start = 0;
      for (stf::TaskId p : graph.predecessors(t))
        start = std::max(start, fin[p]);
      fin[t] = start + exec_ticks(flow.task(t).cost, scale);
      cp = std::max(cp, fin[t]);
    }
  }
  return std::max(balanced, cp);
}

}  // namespace rio::sim
