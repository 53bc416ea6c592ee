// `rioflow chaos`: run the selected workloads under a deterministic
// fault-plan sweep (kinds x seeds x rates x engines) with retry+rollback
// and the progress watchdog enabled, verifying every surviving run
// byte-for-byte against the sequential oracle. Crash cells kill workers
// permanently and run under engine::run_supervised, so the oracle check
// additionally covers evict-and-remap recovery (docs/robustness.md).
#include <algorithm>
#include <map>

#include "cli/common.hpp"
#include "stf/stf.hpp"
#include "support/json.hpp"

namespace rio::cli {
namespace {

/// One (workload, engine, kind, rate, seed) cell: a row of the --json
/// report.
struct Cell {
  std::string workload, engine, kind, verdict;
  double rate = 0.0;
  std::uint64_t seed = 0, throws = 0, stalls = 0, crashes = 0,
                evictions = 0, replayed = 0;
};

support::FaultPlan make_plan(const std::string& kind, double rate,
                             std::uint64_t seed, std::uint32_t workers) {
  support::FaultPlan plan;
  plan.seed = seed;
  if (kind == "transient") {
    plan.throw_rate = rate;
  } else if (kind == "stall") {
    // Bounded stall windows well inside the watchdog budget: the run must
    // survive them, not trip the tripwire.
    plan.stall_rate = rate;
    plan.stall_ns = 2'000'000;
    plan.max_stalls = 4;
  } else {
    // Permanent worker deaths, capped so the supervisor always has a
    // survivor left to absorb the evicted worker's tasks.
    plan.crash_rate = rate;
    plan.max_crashes = std::min<std::uint32_t>(workers - 1, 2);
  }
  return plan;
}

}  // namespace

int run_chaos(const Options& o, std::ostream& out) {
  const std::vector<std::string> names = split_csv(o.engines);
  if (names.empty()) throw Fail{1, "--engines is empty"};
  std::vector<std::string> kinds;
  if (o.faults == "all")
    kinds = {"transient", "stall", "crash"};
  else if (o.faults == "transient" || o.faults == "stall" ||
           o.faults == "crash")
    kinds = {o.faults};
  else
    throw Fail{1, "unknown --faults '" + o.faults +
                      "' (transient|stall|crash|all)"};
  const bool crashes =
      std::find(kinds.begin(), kinds.end(), "crash") != kinds.end();
  if (crashes && o.workers < 2)
    throw Fail{1, "--faults crash needs --workers >= 2 (the survivors "
                  "absorb the evicted worker's tasks)"};
  std::vector<const engine::Backend*> engines;
  for (const std::string& name : names) {
    const engine::Backend& b = find_engine(name);
    const std::string canonical(b.name());
    // The sweep verifies data bytes against the sequential oracle, which
    // is meaningless when task bodies never run (virtual-time backends).
    if (!b.caps().executes_bodies)
      throw Fail{2, "engine '" + canonical +
                        "' cannot run chaos: task bodies never execute "
                        "(no executes_bodies capability)"};
    if (crashes && !b.caps().supports_recovery)
      throw Fail{2, "engine '" + canonical +
                        "' cannot run crash chaos: no supports_recovery "
                        "capability (see `rioflow engines`)"};
    engines.push_back(&b);
  }
  if (o.fault_rate < 0.0 || o.fault_rate > 1.0)
    throw Fail{1, "--fault-rate must be in [0, 1]"};
  support::RetryPolicy retry;
  retry.max_attempts = o.retries;
  parse_retry_tasks(o.retry_tasks, retry);

  const std::vector<std::string> wl_names =
      o.workload_given ? split_csv(o.workload)
                       : std::vector<std::string>{"chain", "cholesky"};
  std::vector<double> rates{o.fault_rate};
  if (!o.quick && o.fault_rate > 0.0)
    rates.push_back(std::min(1.0, o.fault_rate * 2.0));
  const std::uint32_t seeds =
      o.quick ? std::min<std::uint32_t>(o.fault_seeds, 2) : o.fault_seeds;

  // The summary tallies, keyed as the JSON report names them.
  std::map<std::string, std::uint64_t> n;
  std::vector<Cell> cells;

  for (const std::string& wname : wl_names) {
    Options wo = shrink_if_quick(o);
    wo.workload = wname;
    const DataImage expected = oracle(wo);

    for (const engine::Backend* backend : engines) {
      for (const std::string& kind : kinds) {
        for (double rate : rates) {
          for (std::uint32_t s = 0; s < seeds; ++s) {
            // Fresh flow per run: data starts from zero again.
            workloads::Workload wl =
                build_workload(wo, workloads::BodyKind::kFold);
            engine::Launch launch = make_launch(wo, *backend, wl);
            Cell c{wname, std::string(backend->name()), kind, "ok", rate,
                   o.seed + s};
            support::FaultInjector injector(
                make_plan(kind, rate, c.seed, o.workers));
            launch.collect_stats = false;
            launch.retry = retry;
            launch.fault = &injector;
            launch.watchdog_ns = o.watchdog_ms * 1'000'000ull;
            const stf::FlowImage image = stf::FlowImage::compile(wl.flow);

            const char* tally = "ok";
            engine::Outcome outcome;
            try {
              // Crash cells go through the supervisor: worker loss becomes
              // evict-and-remap + resume instead of a run abort.
              outcome = execute(*backend, image, launch, kind == "crash");
              if (data_image(wl.flow.registry()) != expected) {
                tally = "mismatched";
                c.verdict = "ORACLE MISMATCH";
              }
            } catch (const engine::UnsupportedLaunch&) {
              throw;  // a configuration error, not a chaos verdict
            } catch (const stf::WorkerLost& l) {
              tally = "worker_lost";
              c.verdict = "WORKER LOST (task " +
                          std::to_string(l.deaths().empty()
                                             ? 0
                                             : l.deaths().front().task) +
                          ", unrecovered)";
            } catch (const stf::StallError&) {
              tally = "stalled";
              c.verdict = "STALLED";
            } catch (const stf::TaskFailure& f) {
              tally = "exhausted";
              c.verdict = "exhausted (task " +
                          std::to_string(f.report().task) + " after " +
                          std::to_string(f.report().attempts) + " attempts)";
            } catch (const std::exception& e) {
              tally = "errors";
              c.verdict = std::string("ERROR: ") + e.what();
            }
            c.throws = injector.injected_throws();
            c.stalls = injector.injected_stalls();
            c.crashes = injector.injected_crashes();
            c.evictions = outcome.evictions;
            c.replayed = outcome.tasks_replayed;
            ++n["runs"];
            ++n[tally];
            n["injected_throws"] += c.throws;
            n["injected_stalls"] += c.stalls;
            n["injected_crashes"] += c.crashes;
            n["evictions"] += c.evictions;
            n["tasks_replayed"] += c.replayed;
            if (c.throws + c.stalls + c.crashes > 0) ++n["runs_with_faults"];
            cells.push_back(c);

            out << "chaos: " << wname << " engine=" << c.engine
                << " kind=" << kind << " rate=" << rate << " seed=" << c.seed
                << " throws=" << c.throws << " crashes=" << c.crashes;
            if (c.evictions > 0)
              out << " evicted=" << c.evictions << " replayed=" << c.replayed;
            out << " -> " << c.verdict << "\n";
          }
        }
      }
    }
  }

  // Report order; the text summary spells '_' as '-'.
  const std::string summary[] = {"runs", "ok", "exhausted", "stalled",
                                 "mismatched", "worker_lost", "errors",
                                 "injected_throws", "injected_stalls",
                                 "injected_crashes", "evictions",
                                 "tasks_replayed", "runs_with_faults"};
  out << "-- chaos summary --\n";
  for (const std::string& name : summary) {
    std::string text = name;
    std::replace(text.begin(), text.end(), '_', '-');
    out << (name == "runs" ? "" : " ") << text << '=' << n[name];
  }
  out << "\n";
  const bool bad =
      n["stalled"] + n["mismatched"] + n["worker_lost"] + n["errors"] > 0;
  out << (bad ? "chaos: FAILED\n"
              : "chaos: all surviving runs matched the sequential oracle\n");
  write_report(o.json_path, out, [&](std::ostream& f) {
    f << "{\n  \"schema\": \"rio.chaos.v2\",\n  \"runs\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      f << (i == 0 ? "\n" : ",\n") << "    {\"workload\": "
        << support::json_quote(c.workload)
        << ", \"engine\": " << support::json_quote(c.engine)
        << ", \"kind\": " << support::json_quote(c.kind)
        << ", \"rate\": " << support::json_double(c.rate)
        << ", \"seed\": " << c.seed << ", \"throws\": " << c.throws
        << ", \"stalls\": " << c.stalls << ", \"crashes\": " << c.crashes
        << ", \"evictions\": " << c.evictions
        << ", \"replayed\": " << c.replayed
        << ", \"ok\": " << (c.verdict == "ok" ? "true" : "false")
        << ", \"verdict\": " << support::json_quote(c.verdict) << "}";
    }
    f << (cells.empty() ? "]" : "\n  ]") << ",\n  \"summary\": {";
    for (const std::string& name : summary)
      f << (name == "runs" ? "" : ", ") << support::json_quote(name) << ": "
        << n[name];
    f << "},\n  \"failed\": " << (bad ? "true" : "false") << "\n}\n";
  });
  return bad ? 3 : 0;
}

}  // namespace rio::cli
