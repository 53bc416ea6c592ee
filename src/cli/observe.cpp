// The telemetry commands (docs/observability.md): `rioflow profile`,
// `rioflow blame` and `rioflow obs-diff`.
#include <fstream>
#include <memory>
#include <sstream>

#include "cli/common.hpp"
#include "metrics/efficiency.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "stf/stf.hpp"
#include "support/json.hpp"
#include "support/json_read.hpp"

namespace rio::cli {
namespace {

/// One execution with an obs hub attached, as profile and blame run it.
struct Observed {
  std::unique_ptr<obs::Hub> hub;
  obs::ObsJsonMeta meta;  ///< canonical engine name, workload, e_p, e_r
  support::RunStats stats;
};

/// `recorder`: keep the per-worker event rings (1 span in --sample);
/// counters and phase totals are always on.
Observed observe(const Options& options, bool recorder) {
  const Options o = shrink_if_quick(options);
  const engine::Backend& backend = find_engine(o.engine);
  workloads::Workload wl = build_workload(o, body_for(backend));
  engine::Launch launch = make_launch(o, backend, wl);
  obs::HubOptions ho;
  ho.recorder = recorder;
  ho.sample = o.sample;
  Observed r{std::make_unique<obs::Hub>(ho), {}, {}};
  launch.obs = r.hub.get();
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  r.stats = execute(backend, image, launch, o.recover).stats;
  const auto e = metrics::decompose_synthetic(r.stats.cumulative());
  r.meta = {std::string(backend.name()), wl.name, e.e_p, e.e_r};
  return r;
}

/// A hub duration: ticks on the simulators, formatted time otherwise.
std::string fmt_clock(const obs::Hub& hub, std::uint64_t v) {
  return hub.clock_unit() == obs::ClockUnit::kTicks
             ? std::to_string(v)
             : support::format_duration_ns(static_cast<double>(v));
}

/// Human-readable causal report shared by `rioflow blame` and
/// `rioflow profile --blame`: critical path, blame tables, top stall
/// edges. Long paths elide their middle — --json has the full path.
void print_blame(const obs::causal::Analysis& an, const obs::Hub& hub,
                 std::size_t top_k, bool csv, std::ostream& out) {
  const auto fmt = [&hub](std::uint64_t v) { return fmt_clock(hub, v); };
  out << "critical path: " << fmt(an.crit_path) << " of " << fmt(an.makespan)
      << " makespan (" << an.path.size() << " nodes, body "
      << fmt(an.crit_body) << ", wait " << fmt(an.crit_wait) << ")"
      << (an.complete ? "" : "  [recorder dropped events: partial DAG]")
      << "\n";
  out << "wait attribution: " << fmt(an.wait_attributed) << " of "
      << fmt(an.wait_total) << " across " << an.edges.size() << " edges\n";

  if (!an.path.empty()) {
    support::Table pt({"path task", "worker", "body", "wait_in", "via data"});
    const std::size_t np = an.path.size();
    // Long chains would swamp the terminal: keep both ends, elide the rest.
    const std::size_t head = np <= 16 ? np : 8;
    const std::size_t tail = np <= 16 ? 0 : 8;
    const auto emit = [&](const obs::causal::PathNode& n) {
      auto row = pt.row();
      row.integer(static_cast<long long>(n.task));
      row.integer(static_cast<long long>(n.worker));
      row.str(fmt(n.body));
      row.str(n.wait_in == 0 ? "-" : fmt(n.wait_in));
      row.str(n.via_data == obs::kNoCauseData ? "-"
                                              : std::to_string(n.via_data));
    };
    for (std::size_t i = 0; i < head; ++i) emit(an.path[i]);
    if (tail != 0) {
      auto row = pt.row();
      row.str("... " + std::to_string(np - head - tail) + " nodes ...");
      for (int c = 0; c < 4; ++c) row.str("");
      for (std::size_t i = np - tail; i < np; ++i) emit(an.path[i]);
    }
    print_table(pt, csv, out);
  }
  // The task and handle blame tables share one layout.
  const auto blame_table = [&](const char* title, const auto& rows) {
    if (rows.empty()) return;
    support::Table t({title, "stall caused", "edges"});
    for (std::size_t i = 0; i < std::min(top_k, rows.size()); ++i) {
      const auto& [id, blame, edges] = rows[i];
      t.row()
          .integer(static_cast<long long>(id))
          .str(fmt(blame))
          .integer(static_cast<long long>(edges));
    }
    print_table(t, csv, out);
  };
  blame_table("blamed task", an.task_blame);
  blame_table("blamed data", an.handle_blame);
  if (!an.edges.empty()) {
    support::Table et(
        {"stall edge", "producer", "data", "worker", "wait", "on path"});
    for (std::size_t i = 0; i < std::min(top_k, an.edges.size()); ++i) {
      const obs::causal::WaitEdge& e = an.edges[i];
      auto row = et.row();
      row.str(e.consumer == obs::kNoTask ? "-" : std::to_string(e.consumer));
      row.str(e.producer == obs::kNoTask ? "-" : std::to_string(e.producer));
      row.str(e.data == obs::kNoCauseData ? "-" : std::to_string(e.data));
      row.integer(static_cast<long long>(e.worker));
      row.str(fmt(e.wait));
      row.str(e.on_path ? "yes" : "");
    }
    print_table(et, csv, out);
  }
}

/// Relative drift in percent; a fresh counter appearing from zero counts
/// as 100% so it can never hide below any threshold.
double pct_delta(double oldv, double newv) {
  if (oldv != 0.0) return (newv - oldv) / oldv * 100.0;
  return newv != 0.0 ? 100.0 : 0.0;
}

support::JsonValue read_obs_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Fail{1, "cannot read " + path};
  std::ostringstream ss;
  ss << f.rdbuf();
  support::JsonValue doc;
  std::string error;
  if (!support::json_parse(ss.str(), doc, error))
    throw Fail{1, path + ": " + error};
  const support::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->str_or("") != "rio.obs.v1")
    throw Fail{1, path + " is not a rio.obs.v1 document"};
  return doc;
}

}  // namespace

/// `rioflow profile`: execute once with the rio::obs telemetry hub attached
/// and report per-worker phase totals, counter totals and the e_p*e_r
/// decomposition. --trace exports the flight recorder as a
/// Perfetto-loadable Chrome trace; --json writes the versioned rio.obs.v1
/// metrics document; --blame appends the causal analyzer's report.
int run_profile(const Options& o, std::ostream& out) {
  // The recorder is only paid for when a trace will be exported or the
  // causal analyzer needs the spans.
  const Observed run = observe(o, !o.trace_path.empty() || o.blame);
  const obs::Hub& hub = *run.hub;

  out << "-- profile: " << run.meta.workload << " on " << run.meta.engine
      << " (" << o.workers
      << " workers, clock=" << obs::to_string(hub.clock_unit()) << ") --\n";
  std::vector<std::string> header{"worker"};
  for (std::size_t p = 0; p < obs::kNumSpanPhases; ++p)
    header.push_back(obs::to_string(static_cast<obs::Phase>(p)));
  header.emplace_back("tasks");
  support::Table table(header);
  const obs::CounterSnapshot snap = hub.counter_snapshot();
  for (std::size_t w = 0; w < hub.num_workers(); ++w) {
    auto row = table.row();
    row.integer(static_cast<long long>(w));
    const auto& ph = hub.phase_totals(w);
    for (std::size_t p = 0; p < obs::kNumSpanPhases; ++p)
      row.str(fmt_clock(hub, ph[p]));
    row.integer(static_cast<long long>(
        snap.worker_value(w, obs::Counter::kTasksExecuted)));
  }
  print_table(table, o.csv, out);

  out << "counters:";
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const std::uint64_t v = snap.total(static_cast<obs::Counter>(c));
    if (v > 0)
      out << ' ' << obs::counter_name(static_cast<obs::Counter>(c)) << '='
          << v;
  }
  out << "\n";
  print_decompose(run.stats, out);
  if (hub.recorder_enabled())
    out << "recorder: " << hub.recorded() << " events retained, "
        << hub.dropped() << " dropped (sample 1-in-" << hub.sample_stride()
        << ")\n";
  if (o.blame)
    print_blame(obs::causal::analyze(hub), hub, o.top_edges, o.csv, out);

  write_report(o.trace_path, out, [&](std::ostream& f) {
    obs::write_perfetto_trace(hub, f);
  });
  write_report(o.json_path, out, [&](std::ostream& f) {
    obs::write_obs_json(hub, run.stats, run.meta, f);
  });
  return 0;
}

/// `rioflow blame`: execute once with the flight recorder forced on, then
/// run the obs::causal analyzer — executed-DAG critical path, per-task and
/// per-handle blame, top stall edges. Any supports_obs backend works; the
/// virtual-time simulators give an exact critical path. --trace writes the
/// Perfetto trace whose dep flow arrows mirror the wait edges; --json
/// writes the versioned rio.blame.v1 document.
int run_blame(const Options& o, std::ostream& out) {
  // The analyzer IS the recorder's consumer: always record.
  const Observed run = observe(o, true);
  const obs::Hub& hub = *run.hub;

  out << "-- blame: " << run.meta.workload << " on " << run.meta.engine
      << " (" << o.workers
      << " workers, clock=" << obs::to_string(hub.clock_unit())
      << ", sample 1-in-" << hub.sample_stride() << ") --\n";
  const obs::causal::Analysis an = obs::causal::analyze(hub);
  print_blame(an, hub, o.top_edges, o.csv, out);

  write_report(o.trace_path, out, [&](std::ostream& f) {
    obs::write_perfetto_trace(hub, f);
  });
  write_report(o.json_path, out, [&](std::ostream& f) {
    obs::causal::write_blame_json(an, hub, run.meta, o.top_edges, f);
  });
  return 0;
}

/// `rioflow obs-diff old.obs.json new.obs.json`: compare two rio.obs.v1
/// reports — wall time, per-phase totals, counters and the e_p*e_r
/// product. Exit 3 when the new run regressed beyond --threshold: wall
/// grew, a non-body (overhead/stall) phase grew, or the efficiency
/// product dropped. Counters are reported but never gate: their drift is
/// diagnosis, not verdict. --json writes the rio.obsdiff.v1 document.
int run_obs_diff(const Options& o, std::ostream& out) {
  if (o.inputs.size() != 2)
    throw Fail{1, "obs-diff needs exactly two rio.obs.v1 files (old new)"};
  const support::JsonValue docs[2] = {read_obs_report(o.inputs[0]),
                                      read_obs_report(o.inputs[1])};
  // Nested numeric lookup; absent members read as 0 (older reports).
  const auto num_in = [](const support::JsonValue* obj,
                         const char* key) -> double {
    const support::JsonValue* v = obj == nullptr ? nullptr : obj->find(key);
    return v == nullptr ? 0.0 : v->num_or(0.0);
  };

  struct Row {
    std::string name;
    double oldv = 0.0;
    double newv = 0.0;
    bool regressed = false;
  };
  std::vector<Row> phases;
  std::vector<Row> counters;
  const auto collect = [&](const char* key, std::vector<Row>& rows) {
    const auto section = [key](const support::JsonValue& doc) {
      const support::JsonValue* totals = doc.find("totals");
      return totals == nullptr ? nullptr : totals->find(key);
    };
    const support::JsonValue* po = section(docs[0]);
    const support::JsonValue* pn = section(docs[1]);
    if (po != nullptr)
      for (const auto& [name, v] : po->members)
        rows.push_back({name, v.num_or(0.0), num_in(pn, name.c_str()), false});
    if (pn != nullptr)
      for (const auto& [name, v] : pn->members) {
        bool seen = false;
        for (const Row& r : rows) seen = seen || r.name == name;
        if (!seen) rows.push_back({name, 0.0, v.num_or(0.0), false});
      }
  };
  collect("phases", phases);
  collect("counters", counters);

  const double wall_old = num_in(&docs[0], "wall_ns");
  const double wall_new = num_in(&docs[1], "wall_ns");
  const double prod_old = num_in(docs[0].find("decompose"), "product");
  const double prod_new = num_in(docs[1].find("decompose"), "product");

  // The regression gate: more wall time, more overhead/stall time, or a
  // worse efficiency product — each beyond the threshold, and only when
  // the old side actually measured something (a 0 -> x phase on a run
  // that previously recorded nothing is growth from noise, not signal).
  const bool wall_bad =
      wall_old > 0.0 && pct_delta(wall_old, wall_new) > o.threshold;
  const bool prod_bad =
      prod_old > 0.0 && pct_delta(prod_old, prod_new) < -o.threshold;
  std::vector<std::string> regressions;
  if (wall_bad) regressions.push_back("wall_ns");
  for (Row& r : phases) {
    if (r.name == "body") continue;  // more body = more real work, not stall
    if (r.oldv > 0.0 && pct_delta(r.oldv, r.newv) > o.threshold) {
      r.regressed = true;
      regressions.push_back("phase " + r.name);
    }
  }
  if (prod_bad) regressions.push_back("e_p*e_r product");

  out << "-- obs-diff: " << o.inputs[0] << " -> " << o.inputs[1]
      << " (threshold " << o.threshold << "%) --\n";
  support::Table table({"metric", "old", "new", "drift", "gate"});
  const auto metric_row = [&](const std::string& name, double ov, double nv,
                              bool gated, bool bad) {
    table.row()
        .str(name)
        .str(printf_double("%.6g", ov))
        .str(printf_double("%.6g", nv))
        .str(printf_double("%+.2f%%", pct_delta(ov, nv)))
        .str(bad ? "REGRESSED" : (gated ? "ok" : "info"));
  };
  metric_row("wall_ns", wall_old, wall_new, true, wall_bad);
  metric_row("e_p*e_r", prod_old, prod_new, true, prod_bad);
  for (const Row& r : phases)
    metric_row("phase " + r.name, r.oldv, r.newv, r.name != "body",
               r.regressed);
  for (const Row& r : counters)
    if (r.oldv != 0.0 || r.newv != 0.0)
      metric_row(r.name, r.oldv, r.newv, false, false);
  print_table(table, o.csv, out);

  if (regressions.empty()) {
    out << "no regressions beyond " << o.threshold << "%\n";
  } else {
    out << "regressions (" << regressions.size()
        << "): " << join(regressions, " ") << "\n";
  }

  write_report(o.json_path, out, [&](std::ostream& f) {
    using support::json_double;
    using support::json_quote;
    const auto metric_json = [&](const char* name, double ov, double nv) {
      f << "  " << json_quote(name) << ": {\"old\": " << json_double(ov)
        << ", \"new\": " << json_double(nv)
        << ", \"drift_pct\": " << json_double(pct_delta(ov, nv)) << "},\n";
    };
    f << "{\n  \"schema\": \"rio.obsdiff.v1\",\n"
      << "  \"old\": " << json_quote(o.inputs[0]) << ",\n"
      << "  \"new\": " << json_quote(o.inputs[1]) << ",\n"
      << "  \"threshold_pct\": " << json_double(o.threshold) << ",\n";
    metric_json("wall_ns", wall_old, wall_new);
    metric_json("product", prod_old, prod_new);
    const auto rows_json = [&](const char* key,
                               const std::vector<Row>& rows, bool gate) {
      f << "  " << json_quote(key) << ": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        f << (i == 0 ? "\n" : ",\n") << "    {\"name\": "
          << json_quote(r.name) << ", \"old\": " << json_double(r.oldv)
          << ", \"new\": " << json_double(r.newv) << ", \"drift_pct\": "
          << json_double(pct_delta(r.oldv, r.newv));
        if (gate)
          f << ", \"regressed\": " << (r.regressed ? "true" : "false");
        f << "}";
      }
      f << (rows.empty() ? "]" : "\n  ]");
    };
    rows_json("phases", phases, true);
    f << ",\n";
    rows_json("counters", counters, false);
    f << ",\n  \"regressions\": [";
    for (std::size_t i = 0; i < regressions.size(); ++i)
      f << (i == 0 ? "" : ", ") << json_quote(regressions[i]);
    f << "],\n  \"regressed\": "
      << (regressions.empty() ? "false" : "true") << "\n}\n";
  });
  return regressions.empty() ? 0 : 3;
}

}  // namespace rio::cli
