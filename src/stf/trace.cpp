#include "stf/trace.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

namespace rio::stf {
namespace {

std::string describe(const TaskFlow& flow, TaskId t) {
  std::ostringstream os;
  os << "task " << t;
  const std::string& name = flow.task(t).name;
  if (!name.empty()) os << " ('" << name << "')";
  return os.str();
}

}  // namespace

ValidationResult Trace::validate(const TaskFlow& flow,
                                 const DependencyGraph& graph,
                                 bool require_worker_in_order) const {
  const std::size_t n = flow.num_tasks();

  // --- completeness: each task executed exactly once -----------------------
  std::vector<const TraceEvent*> by_task(n, nullptr);
  for (const TraceEvent& ev : events_) {
    if (ev.task >= n)
      return ValidationResult::failure("trace references unknown task id");
    if (by_task[ev.task] != nullptr)
      return ValidationResult::failure(describe(flow, ev.task) +
                                       " executed more than once");
    by_task[ev.task] = &ev;
  }
  for (TaskId t = 0; t < n; ++t)
    if (by_task[t] == nullptr)
      return ValidationResult::failure(describe(flow, t) + " never executed");

  // --- timestamp availability ----------------------------------------------
  // An engine that records no timestamps (every event 0/0) would make the
  // interval sweep and the dependency check below pass vacuously. Report
  // those checks as skipped instead of silently claiming race freedom.
  bool have_timestamps = events_.empty();
  for (const TraceEvent& ev : events_) {
    if (ev.start_ns != 0 || ev.end_ns != 0) {
      have_timestamps = true;
      break;
    }
  }

  // --- data-race freedom: per-data interval sweep ---------------------------
  // For each data object, collect (start, end, writer?) intervals and sweep
  // in start order; any overlap involving a writer is a race.
  struct Interval {
    std::uint64_t start, end;
    bool writer;
    TaskId task;
  };
  std::vector<std::vector<Interval>> per_data(
      have_timestamps ? flow.num_data() : 0);
  for (TaskId t = 0; t < n && have_timestamps; ++t) {
    const TraceEvent* ev = by_task[t];
    for (const Access& a : flow.task(t).accesses)
      per_data[a.data].push_back(
          {ev->start_ns, ev->end_ns, is_write(a.mode), t});
  }
  for (DataId d = 0; d < per_data.size(); ++d) {
    auto& ivs = per_data[d];
    std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
      return a.start < b.start;
    });
    // Min-heap of active interval ends, plus the count of active writers.
    using HeapItem = std::pair<std::uint64_t, bool>;  // (end, writer)
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> active;
    std::size_t active_writers = 0;
    for (const Interval& iv : ivs) {
      while (!active.empty() && active.top().first <= iv.start) {
        if (active.top().second) --active_writers;
        active.pop();
      }
      const bool conflict =
          (iv.writer && !active.empty()) || (!iv.writer && active_writers > 0);
      if (conflict) {
        return ValidationResult::failure(
            "data race on data object " + std::to_string(d) + " involving " +
            describe(flow, iv.task));
      }
      active.emplace(iv.end, iv.writer);
      if (iv.writer) ++active_writers;
    }
  }

  // --- sequential consistency: predecessors finish before successors start -
  for (TaskId t = 0; t < n && have_timestamps; ++t) {
    for (TaskId p : graph.predecessors(t)) {
      if (by_task[p]->end_ns > by_task[t]->start_ns) {
        return ValidationResult::failure(
            describe(flow, t) + " started before its dependency " +
            describe(flow, p) + " finished");
      }
    }
  }

  // --- in-order per worker (RunInOrder model's additional constraint) ------
  if (require_worker_in_order) {
    std::vector<std::vector<const TraceEvent*>> per_worker;
    for (const TraceEvent& ev : events_) {
      if (ev.worker >= per_worker.size()) per_worker.resize(ev.worker + 1);
      per_worker[ev.worker].push_back(&ev);
    }
    for (auto& evs : per_worker) {
      std::sort(evs.begin(), evs.end(),
                [](const TraceEvent* a, const TraceEvent* b) {
                  return a->seq < b->seq;
                });
      for (std::size_t i = 1; i < evs.size(); ++i) {
        if (evs[i - 1]->task > evs[i]->task) {
          return ValidationResult::failure(
              "worker " + std::to_string(evs[i]->worker) + " executed " +
              describe(flow, evs[i]->task) + " after " +
              describe(flow, evs[i - 1]->task) + " (out of order)");
        }
      }
    }
  }

  if (!have_timestamps) {
    ValidationResult r;
    r.timing_checked = false;
    r.reason =
        "timestamps unavailable: data-race and dependency-order checks "
        "skipped";
    return r;
  }
  return {};
}

obs::HubOptions trace_recorder(std::size_t num_tasks) {
  return {.recorder = true, .ring_capacity = 3 * num_tasks + 1};
}

ValidationResult trace_from_hub(const obs::Hub& hub, Trace& out) {
  out.clear();
  if (!hub.recorder_enabled())
    return ValidationResult::failure("hub has no recorder: no spans to check");
  if (hub.sample_stride() != 1)
    return ValidationResult::failure(
        "recorder samples 1 span in " + std::to_string(hub.sample_stride()) +
        ": a trace needs every span");
  if (hub.dropped() > 0)
    return ValidationResult::failure(
        "recorder dropped " + std::to_string(hub.dropped()) +
        " events (ring too small): the trace would be incomplete");
  std::vector<obs::Event> events;
  for (std::size_t w = 0; w < hub.num_workers(); ++w) {
    events.clear();
    hub.ring(w)->drain(events);
    std::uint64_t seq = 0;
    for (const obs::Event& ev : events)
      if (ev.phase == obs::Phase::kBody)
        out.record({ev.task, ev.worker, ev.begin, ev.end, seq++});
  }
  return {};
}

}  // namespace rio::stf
