// `rioflow lint` and `rioflow check`: the static flow analyzer and the
// happens-before race checker over a recorded execution (docs/analysis.md).
#include "cli/common.hpp"
#include "stf/stf.hpp"

namespace rio::cli {

/// `rioflow lint`: pure static analysis, nothing executes.
int run_lint(const Options& o, std::ostream& out) {
  const analysis::Severity threshold = parse_fail_on(o.fail_on);
  // Bodies never run, so their kind does not matter.
  const workloads::Workload wl =
      build_workload(o, workloads::BodyKind::kCounter);
  const stf::DependencyGraph graph(wl.flow);
  const rt::Mapping mapping = make_mapping(o, wl);
  analysis::LintOptions lo;
  lo.mapping = &mapping;
  lo.num_workers = o.workers;
  lo.counter_bits = o.counter_bits;
  lo.fusion_threshold = o.fuse_threshold;
  // Only the phase fixtures carry a hybrid partition; regular workloads
  // have no phase structure to lint (RH4xx needs a partition).
  const std::vector<analysis::LintPhase> phases = fixture_phases(o.workload);
  if (!phases.empty()) lo.phases = &phases;
  const analysis::Report report = analysis::lint_flow(wl.flow, graph, lo);
  out << "-- lint: " << wl.name << " --\n";
  report.print(out);
  write_report(o.json_path, out, [&](std::ostream& f) {
    report.write_json(f, "rio.lint.v1");
  });
  return report.count_at_least(threshold) > 0 ? 3 : 0;
}

/// `rioflow check`: execute with a recorder hub and sync recording, then
/// validate the recorded trace (interval test) and run the happens-before
/// race checker on top.
int run_check(const Options& o, std::ostream& out) {
  const analysis::Severity threshold = parse_fail_on(o.fail_on);
  const engine::Backend& backend = find_engine(o.engine);
  workloads::Workload wl = build_workload(o, body_for(backend));

  stf::Trace trace;
  stf::SyncTrace sync;
  stf::ValidationResult recorded;
  bool worker_in_order = false;
  if (o.workload == "lintfix:race") {
    // The injected fixture IS the recorded execution: replay it instead of
    // running (a real run of this flow is correctly ordered).
    auto fx = analysis::fixtures::injected_race();
    trace = std::move(fx.trace);
    sync = std::move(fx.sync);
  } else {
    // Engines that cannot record sync events (sims, seq, hybrid) refuse
    // the launch with the registry's UnsupportedLaunch.
    engine::Launch launch = make_launch(o, backend, wl);
    launch.collect_sync = true;
    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    obs::Hub hub(stf::trace_recorder(image.size()));
    launch.obs = &hub;
    sync = backend.run(image, launch).sync;
    recorded = stf::trace_from_hub(hub, trace);
    worker_in_order = backend.caps().in_order;
  }

  out << "-- check: " << wl.name << " --\n";
  const stf::DependencyGraph graph(wl.flow);
  const stf::ValidationResult vr =
      recorded.ok() ? trace.validate(wl.flow, graph, worker_in_order)
                    : recorded;
  const std::string validation =
      !vr.ok() ? "failed" : (vr.timing_checked ? "ok" : "skipped");
  out << "interval validation: " << (vr.ok() ? validation : "FAILED")
      << (validation == "ok" ? "" : " (" + vr.reason + ")") << "\n";

  const analysis::Report report = analysis::check_happens_before(wl.flow, sync);
  report.print(out);
  write_report(o.json_path, out, [&](std::ostream& f) {
    analysis::Report full = report;
    full.add_metric(std::string("interval validation: ") + validation);
    full.write_json(f, "rio.check.v1");
  });
  if (!vr.ok()) return 2;
  return report.count_at_least(threshold) > 0 ? 3 : 0;
}

}  // namespace rio::cli
