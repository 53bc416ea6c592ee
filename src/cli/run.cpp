// The default command: generate the workload, execute it on --engine and
// report time, recovery, the e_p*e_r decomposition, DOT and a trace.
#include <algorithm>
#include <optional>

#include "cli/common.hpp"
#include "obs/export.hpp"
#include "stf/stf.hpp"
#include "support/clock.hpp"

namespace rio::cli {

int run_workload(const Options& o, std::ostream& out) {
  const engine::Backend& backend = find_engine(o.engine);
  workloads::Workload wl = build_workload(o, body_for(backend));

  const stf::DependencyGraph graph(wl.flow);
  if (o.summary) {
    out << "-- flow: " << wl.name << " --\n";
    stf::print_summary(stf::summarize_flow(wl.flow, graph), out);
  }
  write_report(o.dot_path, out, [&](std::ostream& f) {
    stf::export_dot(wl.flow, graph, f, wl.owners);
  });

  engine::Launch launch = make_launch(o, backend, wl);
  parse_retry_tasks(o.retry_tasks, launch.retry);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  // --trace records every span; backends without supports_obs refuse it.
  std::optional<obs::Hub> hub;
  if (!o.trace_path.empty())
    launch.obs = &hub.emplace(stf::trace_recorder(image.size()));

  double best_s = 1e300;
  engine::Outcome outcome;
  for (int rep = 0; rep < o.repeat; ++rep) {
    if (hub) hub->reset();  // the trace holds the last run only
    support::Stopwatch sw;
    outcome = execute(backend, image, launch, o.recover);
    best_s = std::min(best_s, sw.elapsed_s());
  }

  support::Table table({"engine", "workload", "tasks", "workers", "time"});
  table.row()
      .str(std::string(backend.name()))
      .str(wl.name)
      .integer(static_cast<long long>(wl.flow.num_tasks()))
      .integer(o.workers)
      .str(outcome.virtual_time
               ? support::format_duration_ns(
                     static_cast<double>(outcome.makespan)) +
                     " (virtual)"
               : support::format_duration_ns(best_s * 1e9));
  print_table(table, o.csv, out);

  if (o.recover)
    out << "recovery: " << outcome.evictions << " evictions, "
        << outcome.tasks_replayed << " tasks replayed"
        << (outcome.evictions > 0
                ? ", " + support::format_duration_ns(
                      static_cast<double>(outcome.recovery_wall_ns)) +
                      " recovering"
                : std::string())
        << "\n";
  if (o.decompose) print_decompose(outcome.stats, out);
  write_report(o.trace_path, out, [&](std::ostream& f) {
    obs::write_perfetto_trace(*hub, f, [&](std::uint64_t t) {
      const std::string& name = wl.flow.task(t).name;
      return name.empty() ? "task " + std::to_string(t) : name;
    });
  });
  return 0;
}

}  // namespace rio::cli
