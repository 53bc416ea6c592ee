// `rioflow optimize`: run the flowpass pipeline over the compiled image,
// verify the rewrite byte-for-byte against the sequential oracle, and
// compare optimized vs unoptimized execution on the selected backend
// (docs/passes.md).
#include <algorithm>

#include "cli/common.hpp"
#include "flowpass/pass.hpp"
#include "stf/stf.hpp"
#include "support/clock.hpp"
#include "support/json.hpp"

namespace rio::cli {

int run_optimize(const Options& o, std::ostream& out) {
  const engine::Backend& backend = find_engine(o.engine);
  const std::vector<std::string> pass_names =
      o.passes.empty() ? flowpass::Registry::instance().names()
                       : split_csv(o.passes);
  if (pass_names.empty())
    throw Fail{1, "--passes is empty (choices: " +
                      flowpass::Registry::instance().names_csv() + ")"};

  flowpass::PassOptions popts;
  popts.workers = o.workers;
  popts.fuse_threshold = o.fuse_threshold;
  popts.tune = o.tune;

  const bool bodies = backend.caps().executes_bodies;
  // Any semantics-preserving rewrite must reproduce these bytes.
  const DataImage expected = bodies ? oracle(o) : DataImage{};

  std::vector<flowpass::PassReport> reports;
  std::string workload_name;
  double pipeline_s = 0.0;
  std::size_t source_tasks = 0, optimized_tasks = 0;
  bool virtual_time = false;

  // Best makespan (wall ns, or ticks on a virtual-time engine) over
  // --repeat runs, and whether every run matched the oracle. Fold bodies
  // mix data bytes non-idempotently, so each run rebuilds the workload (and
  // the pipeline) and only the engine run itself is timed.
  const auto measure = [&](bool optimized) {
    double best_s = 1e300;
    std::uint64_t makespan = 0;
    bool match = true;
    for (int rep = 0; rep < std::max(1, o.repeat); ++rep) {
      workloads::Workload wl = build_workload(
          o, bodies ? workloads::BodyKind::kFold : workloads::BodyKind::kNone);
      engine::Launch launch = make_launch(o, backend, wl);
      const stf::FlowImage source = stf::FlowImage::compile(wl.flow);
      flowpass::PipelineResult pipe;
      if (optimized) {
        support::Stopwatch psw;
        pipe = flowpass::run_pipeline(source, pass_names, popts);
        if (!pipe.ok()) throw Fail{1, pipe.error};
        if (rep == 0) {
          pipeline_s = psw.elapsed_s();
          reports = pipe.passes;
          workload_name = wl.name;
          source_tasks = source.size();
          optimized_tasks = pipe.image.size();
        }
        // A placement pass's product beats the CLI default: this is how
        // `--tune`'s winner reaches the real engine. Non-mapping backends
        // ignore Launch::mapping, so overriding it is always safe.
        if (pipe.mapping.valid()) launch.mapping = pipe.mapping;
      }
      const stf::FlowImage& image = optimized ? pipe.image : source;
      support::Stopwatch sw;
      const engine::Outcome outcome = backend.run(image, launch);
      best_s = std::min(best_s, sw.elapsed_s());
      if (optimized) virtual_time = outcome.virtual_time;
      if (outcome.virtual_time) makespan = outcome.makespan;
      if (bodies && data_image(wl.flow.registry()) != expected) match = false;
    }
    if (!virtual_time) makespan = static_cast<std::uint64_t>(best_s * 1e9);
    return std::pair{makespan, match};
  };
  const auto [opt_makespan, opt_match] = measure(true);
  const auto [unopt_makespan, unopt_match] = measure(false);

  out << "-- optimize: " << workload_name << " on " << backend.name() << " ("
      << o.workers << " workers, passes ";
  for (std::size_t i = 0; i < pass_names.size(); ++i)
    out << (i == 0 ? "" : ",") << pass_names[i];
  out << (o.tune ? ", tuned" : "") << ") --\n";

  if (o.report) {
    const auto arrow = [](std::uint64_t a, std::uint64_t b) {
      return std::to_string(a) + " -> " + std::to_string(b);
    };
    support::Table table(
        {"pass", "tasks", "edges", "critical path", "balance", "detail"});
    for (const flowpass::PassReport& r : reports)
      table.row()
          .str(r.pass)
          .str(arrow(r.tasks_before, r.tasks_after))
          .str(arrow(r.edges_before, r.edges_after))
          .str(arrow(r.critical_path_before, r.critical_path_after))
          .str(printf_double("%.2f", r.balance_before) + " -> " +
               printf_double("%.2f", r.balance_after))
          .str(r.detail);
    print_table(table, o.csv, out);
    for (const flowpass::PassReport& r : reports)
      for (const flowpass::TuneStep& t : r.tuning)
        out << "tune[" << r.pass << "]: " << t.candidate << " -> " << t.score
            << (t.chosen ? "  (chosen)" : "") << "\n";
  }

  const auto ok = [](bool match) { return match ? "ok" : "ORACLE MISMATCH"; };
  if (bodies)
    out << "verification: optimized " << ok(opt_match) << ", unoptimized "
        << ok(unopt_match) << " (vs sequential oracle, " << expected.size()
        << " data objects)\n";
  else
    out << "verification: skipped (" << backend.name()
        << " is a virtual-time engine; bodies never execute)\n";

  const auto fmt_span = [&](std::uint64_t v) {
    return virtual_time
               ? std::to_string(v) + " ticks (virtual)"
               : support::format_duration_ns(static_cast<double>(v));
  };
  out << "tasks: " << source_tasks << " -> " << optimized_tasks
      << "  unoptimized: " << fmt_span(unopt_makespan)
      << "  optimized: " << fmt_span(opt_makespan);
  if (opt_makespan > 0)
    out << "  speedup: "
        << printf_double("%.2fx", static_cast<double>(unopt_makespan) /
                                      static_cast<double>(opt_makespan));
  out << "\n";

  write_report(o.json_path, out, [&](std::ostream& f) {
    const auto flag = [](bool b) { return b ? "true" : "false"; };
    f << "{\n  \"schema\": \"rio.optimize.v1\",\n"
      << "  \"workload\": " << support::json_quote(workload_name) << ",\n"
      << "  \"engine\": " << support::json_quote(backend.name()) << ",\n"
      << "  \"workers\": " << o.workers << ",\n"
      << "  \"tune\": " << flag(o.tune) << ",\n"
      << "  \"fuse_threshold\": " << o.fuse_threshold << ",\n"
      << "  \"passes\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const flowpass::PassReport& r = reports[i];
      f << (i == 0 ? "" : ",") << "\n    {\"name\": "
        << support::json_quote(r.pass)
        << ", \"tasks_before\": " << r.tasks_before
        << ", \"tasks_after\": " << r.tasks_after
        << ", \"edges_before\": " << r.edges_before
        << ", \"edges_after\": " << r.edges_after
        << ", \"critical_path_before\": " << r.critical_path_before
        << ", \"critical_path_after\": " << r.critical_path_after
        << ", \"balance_before\": " << support::json_double(r.balance_before)
        << ", \"balance_after\": " << support::json_double(r.balance_after)
        << ", \"detail\": " << support::json_quote(r.detail)
        << ", \"tuning\": [";
      for (std::size_t t = 0; t < r.tuning.size(); ++t)
        f << (t == 0 ? "" : ", ") << "{\"candidate\": "
          << support::json_quote(r.tuning[t].candidate)
          << ", \"score\": " << r.tuning[t].score
          << ", \"chosen\": " << flag(r.tuning[t].chosen) << "}";
      f << "]}";
    }
    f << "\n  ],\n"
      << "  \"tasks_before\": " << source_tasks << ",\n"
      << "  \"tasks_after\": " << optimized_tasks << ",\n"
      << "  \"verification\": {\"checked\": " << flag(bodies)
      << ", \"optimized_matches_oracle\": "
      << (bodies ? flag(opt_match) : "null")
      << ", \"unoptimized_matches_oracle\": "
      << (bodies ? flag(unopt_match) : "null") << "},\n"
      << "  \"virtual_time\": " << flag(virtual_time) << ",\n"
      << "  \"unoptimized_makespan\": " << unopt_makespan << ",\n"
      << "  \"optimized_makespan\": " << opt_makespan << ",\n"
      << "  \"pipeline_seconds\": " << support::json_double(pipeline_s)
      << "\n}\n";
  });
  return (opt_match && unopt_match) ? 0 : 3;
}

}  // namespace rio::cli
