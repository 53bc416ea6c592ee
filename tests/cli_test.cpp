// Tests for the rioflow command-line driver (src/cli).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/cli.hpp"
#include "cli/common.hpp"
#include "engine/registry.hpp"
#include "support/json_read.hpp"

namespace {

using rio::cli::Options;

bool parse_args(std::initializer_list<const char*> args, Options& o,
                std::string& error) {
  std::vector<const char*> argv{"rioflow"};
  argv.insert(argv.end(), args.begin(), args.end());
  return rio::cli::parse(static_cast<int>(argv.size()), argv.data(), o,
                         error);
}

int run_args(std::initializer_list<const char*> args, std::string* out_text =
                                                          nullptr) {
  Options o;
  std::string error;
  if (!parse_args(args, o, error)) return -1;
  std::ostringstream out, err;
  const int rc = rio::cli::run(o, out, err);
  if (out_text) *out_text = out.str() + err.str();
  return rc;
}

// ------------------------------------------------------------- parsing -----

TEST(CliParse, DefaultsAreSane) {
  Options o;
  std::string error;
  EXPECT_TRUE(parse_args({}, o, error));
  EXPECT_EQ(o.workload, "independent");
  EXPECT_EQ(o.engine, "rio");
  EXPECT_EQ(o.workers, 2u);
}

TEST(CliParse, AllKnobs) {
  Options o;
  std::string error;
  EXPECT_TRUE(parse_args({"--workload", "lu", "--engine", "coor", "--workers",
                          "7", "--tiles", "5", "--task-size", "123",
                          "--mapping", "rr", "--policy", "block",
                          "--scheduler", "priority", "--repeat", "3",
                          "--seed", "9", "--summary", "--decompose", "--csv"},
                         o, error))
      << error;
  EXPECT_EQ(o.workload, "lu");
  EXPECT_EQ(o.engine, "coor");
  EXPECT_EQ(o.workers, 7u);
  EXPECT_EQ(o.tiles, 5u);
  EXPECT_EQ(o.task_size, 123u);
  EXPECT_EQ(o.mapping, "rr");
  EXPECT_EQ(o.policy, "block");
  EXPECT_EQ(o.scheduler, "priority");
  EXPECT_EQ(o.repeat, 3);
  EXPECT_EQ(o.seed, 9u);
  EXPECT_TRUE(o.summary && o.decompose && o.csv);
}

TEST(CliParse, RejectsUnknownOption) {
  Options o;
  std::string error;
  EXPECT_FALSE(parse_args({"--frobnicate"}, o, error));
  EXPECT_NE(error.find("unknown option"), std::string::npos);
}

TEST(CliParse, RejectsMissingValue) {
  Options o;
  std::string error;
  EXPECT_FALSE(parse_args({"--workers"}, o, error));
}

TEST(CliParse, RejectsBadNumber) {
  Options o;
  std::string error;
  EXPECT_FALSE(parse_args({"--tasks", "banana"}, o, error));
  EXPECT_NE(error.find("bad numeric"), std::string::npos);
  // Non-finite reals and integers that would wrap are bad numbers too: a
  // NaN threshold never trips obs-diff's gate, and 2^31 preemptions would
  // wrap to a negative bound, which means unbounded.
  EXPECT_FALSE(parse_args({"--threshold", "nan"}, o, error));
  EXPECT_NE(error.find("bad numeric"), std::string::npos);
  EXPECT_FALSE(parse_args({"--threshold", "inf"}, o, error));
  EXPECT_FALSE(parse_args({"--max-preemptions", "2147483648"}, o, error));
  EXPECT_FALSE(parse_args({"--max-preemptions", "4294967295"}, o, error));
  EXPECT_FALSE(parse_args({"--repeat", "2147483648"}, o, error));
  EXPECT_TRUE(parse_args({"--max-preemptions", "2147483647"}, o, error))
      << error;
  EXPECT_EQ(o.max_preemptions, 2147483647);
}

TEST(CliParse, RejectsZeroWorkers) {
  Options o;
  std::string error;
  EXPECT_FALSE(parse_args({"--workers", "0"}, o, error));
}

TEST(CliParse, HelpShortCircuits) {
  Options o;
  std::string error;
  EXPECT_TRUE(parse_args({"--help"}, o, error));
  EXPECT_TRUE(o.help);
  std::string text;
  EXPECT_EQ(run_args({"--help"}, &text), 0);
  EXPECT_NE(text.find("usage:"), std::string::npos);
}

// -------------------------------------------------------------- running ----

TEST(CliRun, EveryRegisteredEngineRunsEveryCompatibleWorkload) {
  // Driven by the registry, not a hand-kept list: a newly registered
  // backend is swept automatically (and must be runnable from the CLI with
  // default knobs — that is the point of the registry seam).
  for (const std::string& engine : rio::engine::Registry::instance().names()) {
    for (const char* workload :
         {"independent", "random", "gemm", "lu", "cholesky", "stencil",
          "taskbench:fft"}) {
      std::string text;
      const int rc = run_args({"--engine", engine.c_str(), "--workload",
                               workload, "--tasks", "200", "--tiles", "3",
                               "--width", "6", "--steps", "4", "--task-size",
                               "50", "--workers", "2"},
                              &text);
      EXPECT_EQ(rc, 0) << engine << " x " << workload << ": " << text;
      EXPECT_NE(text.find(engine), std::string::npos);
    }
  }
}

TEST(CliRun, UnknownEngineFails) {
  std::string text;
  EXPECT_EQ(run_args({"--engine", "warp-drive"}, &text), 1);
  EXPECT_NE(text.find("unknown engine"), std::string::npos);
}

TEST(CliRun, UnknownWorkloadFails) {
  std::string text;
  EXPECT_EQ(run_args({"--workload", "nonsense"}, &text), 1);
}

TEST(CliRun, UnknownTaskbenchPatternFails) {
  std::string text;
  EXPECT_EQ(run_args({"--workload", "taskbench:warp"}, &text), 1);
}

TEST(CliRun, SchedulerOnBackendWithoutSchedulerExitsTwo) {
  // rio has no scheduler: a non-default --scheduler is refused with the
  // structured capability error.
  std::string text;
  EXPECT_EQ(run_args({"--engine", "rio", "--workload", "chain", "--tasks",
                      "64", "--scheduler", "priority"},
                     &text),
            2);
  EXPECT_NE(text.find("scheduler (backend lacks uses_scheduler)"),
            std::string::npos)
      << text;
}

TEST(CliRun, SummaryAndDecomposePrint) {
  std::string text;
  EXPECT_EQ(run_args({"--workload", "lu", "--tiles", "3", "--summary",
                      "--decompose", "--task-size", "10"},
                     &text),
            0);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("e_p ="), std::string::npos);
}

TEST(CliRun, WritesDotAndTraceFiles) {
  const std::string dot = "/tmp/rioflow_test.dot";
  const std::string trace = "/tmp/rioflow_test_trace.json";
  std::remove(dot.c_str());
  std::remove(trace.c_str());
  std::string text;
  EXPECT_EQ(run_args({"--workload", "gemm", "--tiles", "2", "--engine", "rio",
                      "--task-size", "10", "--repeat", "3", "--dot",
                      dot.c_str(), "--trace", trace.c_str()},
                     &text),
            0);
  std::ifstream fd(dot), ft(trace);
  ASSERT_TRUE(fd.good());
  ASSERT_TRUE(ft.good());
  std::stringstream sd, st;
  sd << fd.rdbuf();
  st << ft.rdbuf();
  EXPECT_NE(sd.str().find("digraph taskflow"), std::string::npos);
  // The Perfetto trace profile writes, holding the last repeat only: one
  // body slice per task of the 2x2x2 gemm, named after its task.
  rio::support::JsonValue doc;
  std::string error;
  ASSERT_TRUE(rio::support::json_parse(st.str(), doc, error)) << error;
  ASSERT_EQ(doc.kind, rio::support::JsonValue::Kind::kArray);
  std::size_t bodies = 0;
  for (const rio::support::JsonValue& ev : doc.items) {
    const std::string_view name = ev.find("name")->str_or("");
    if (ev.find("ph")->str_or("") == "X" && name.rfind("gemm(", 0) == 0)
      ++bodies;
    EXPECT_NE(name, "body");
  }
  EXPECT_EQ(bodies, 8u);
  std::remove(dot.c_str());
  std::remove(trace.c_str());
}

TEST(CliRun, TraceRunsOnEverySupportsObsBackend) {
  // --trace attaches a recorder hub: every supports_obs backend writes the
  // trace, and the others refuse the hub (exit 2).
  const std::string trace = "/tmp/rioflow_test_engine_trace.json";
  for (const rio::engine::Backend* b :
       rio::engine::Registry::instance().all()) {
    const std::string name(b->name());
    std::string text;
    EXPECT_EQ(run_args({"--workload", "chain", "--tasks", "32", "--engine",
                        name.c_str(), "--trace", trace.c_str()},
                       &text),
              b->caps().supports_obs ? 0 : 2)
        << name << ": " << text;
  }
  std::remove(trace.c_str());
}

TEST(CliRun, CsvOutput) {
  std::string text;
  EXPECT_EQ(run_args({"--csv", "--tasks", "50", "--task-size", "10"}, &text),
            0);
  EXPECT_NE(text.find("engine,workload,tasks,workers,time"),
            std::string::npos);
}

TEST(CliRun, SimEngineReportsVirtualTime) {
  std::string text;
  EXPECT_EQ(run_args({"--engine", "sim-coor", "--workers", "24", "--tasks",
                      "1000", "--task-size", "1000"},
                     &text),
            0);
  EXPECT_NE(text.find("(virtual)"), std::string::npos);
}

// ----------------------------------------------------------- lint/check ----

TEST(CliLint, ParsesSubcommandAndKnobs) {
  Options o;
  std::string error;
  EXPECT_TRUE(parse_args({"lint", "--workload", "gemm", "--counter-bits",
                          "16", "--fail-on", "info"},
                         o, error))
      << error;
  EXPECT_EQ(o.command, "lint");
  EXPECT_EQ(o.counter_bits, 16u);
  EXPECT_EQ(o.fail_on, "info");
}

TEST(CliLint, RejectsUnknownCommand) {
  Options o;
  std::string error;
  EXPECT_FALSE(parse_args({"frobnicate"}, o, error));
  EXPECT_NE(error.find("unknown command"), std::string::npos);
}

TEST(CliLint, RejectsBadFailOn) {
  std::string text;
  EXPECT_EQ(run_args({"lint", "--fail-on", "sometimes"}, &text), 1);
}

TEST(CliLint, EachBadFixtureFailsWithItsCode) {
  const struct {
    const char* workload;
    const char* code;
    const char* fail_on;
  } cases[] = {
      {"lintfix:uninit-read", "RF001", "warning"},
      {"lintfix:dead-write", "RF002", "warning"},
      {"lintfix:unused-handle", "RF003", "warning"},
      {"lintfix:redundant-edge", "RF004", "info"},
  };
  for (const auto& c : cases) {
    std::string text;
    const int rc = run_args(
        {"lint", "--workload", c.workload, "--fail-on", c.fail_on}, &text);
    EXPECT_EQ(rc, 3) << c.workload << ": " << text;
    EXPECT_NE(text.find(c.code), std::string::npos)
        << c.workload << ": " << text;
  }
}

TEST(CliLint, RedundantEdgeFixturePassesAtDefaultThreshold) {
  // The finding is informational (the dependency scanner itself emits such
  // edges for W->R->W patterns), so the default gate lets it through.
  std::string text;
  EXPECT_EQ(run_args({"lint", "--workload", "lintfix:redundant-edge"}, &text),
            0)
      << text;
  EXPECT_NE(text.find("RF004"), std::string::npos);
}

TEST(CliLint, ShippedWorkloadsExitZero) {
  for (const char* workload :
       {"independent", "random", "gemm", "lu", "cholesky", "stencil",
        "taskbench:fft", "taskbench:trivial", "taskbench:stencil_1d"}) {
    std::string text;
    const int rc = run_args({"lint", "--workload", workload, "--tasks",
                             "2048", "--tiles", "3", "--width", "6",
                             "--steps", "4", "--workers", "2"},
                            &text);
    EXPECT_EQ(rc, 0) << workload << ":\n" << text;
  }
}

TEST(CliLint, UnknownFixtureFails) {
  std::string text;
  EXPECT_EQ(run_args({"lint", "--workload", "lintfix:nonsense"}, &text), 1);
}

TEST(CliLint, NarrowCountersAreDiagnosed) {
  std::string text;
  const int rc = run_args({"lint", "--workload", "stencil", "--width", "6",
                           "--steps", "4", "--counter-bits", "1"},
                          &text);
  EXPECT_EQ(rc, 3) << text;
  EXPECT_NE(text.find("RP201"), std::string::npos);
}

TEST(CliCheck, CleanRunPassesOnAllSyncEngines) {
  // rio-pruned included: PrunedRuntime records the same acquire/release
  // sync events as the full runtime, so the happens-before checker must
  // find a populated trace (no RC302 "no events" escape hatch).
  for (const char* engine : {"rio", "rio-pruned", "coor"}) {
    std::string text;
    const int rc = run_args({"check", "--engine", engine, "--workload",
                             "stencil", "--width", "4", "--steps", "4",
                             "--task-size", "20", "--workers", "2"},
                            &text);
    EXPECT_EQ(rc, 0) << engine << ":\n" << text;
    EXPECT_NE(text.find("0 race(s)"), std::string::npos) << text;
    EXPECT_EQ(text.find("RC302"), std::string::npos) << engine << ":\n"
                                                     << text;
  }
}

TEST(CliCheck, InjectedRaceFixtureFails) {
  std::string text;
  const int rc = run_args({"check", "--workload", "lintfix:race"}, &text);
  EXPECT_EQ(rc, 3) << text;
  // The interval validator is satisfied by the disjoint wall-clock windows;
  // only the happens-before checker sees the race.
  EXPECT_NE(text.find("interval validation: ok"), std::string::npos) << text;
  EXPECT_NE(text.find("RC301"), std::string::npos) << text;
}

TEST(CliCheck, RejectsSimEnginesWithStructuredCapabilityError) {
  // Satellite of docs/engines.md: a knob the backend cannot honour is ONE
  // registry-generated UnsupportedLaunch error and exit code 2 — distinct
  // from exit 1 (unknown engine name).
  std::string text;
  EXPECT_EQ(run_args({"check", "--engine", "sim-rio"}, &text), 2);
  EXPECT_NE(text.find("engine 'sim-rio' cannot run this launch"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("collect_sync"), std::string::npos) << text;
}

TEST(CliChaos, ParsesFlags) {
  Options o;
  std::string error;
  ASSERT_TRUE(parse_args({"chaos", "--fault-rate", "0.25", "--fault-seeds",
                          "5", "--retries", "4", "--watchdog-ms", "750",
                          "--engines", "rio,coor", "--quick", "--workload",
                          "chain"},
                         o, error))
      << error;
  EXPECT_EQ(o.command, "chaos");
  EXPECT_DOUBLE_EQ(o.fault_rate, 0.25);
  EXPECT_EQ(o.fault_seeds, 5u);
  EXPECT_EQ(o.retries, 4u);
  EXPECT_EQ(o.watchdog_ms, 750u);
  EXPECT_EQ(o.engines, "rio,coor");
  EXPECT_TRUE(o.quick);
  EXPECT_TRUE(o.workload_given);
}

TEST(CliChaos, BadFaultRateFails) {
  Options o;
  std::string error;
  EXPECT_FALSE(parse_args({"chaos", "--fault-rate", "lots"}, o, error));
  // NaN passes any range check and injects nothing.
  EXPECT_FALSE(parse_args({"chaos", "--fault-rate", "nan"}, o, error));
  EXPECT_FALSE(parse_args({"chaos", "--fault-rate", "inf"}, o, error));
  EXPECT_FALSE(parse_args({"chaos", "--fault-rate", "-inf"}, o, error));
}

TEST(CliChaos, HonoursScheduler) {
  std::string text;
  EXPECT_EQ(run_args({"chaos", "--quick", "--engines", "coor", "--scheduler",
                      "bogus"},
                     &text),
            1);
  EXPECT_NE(text.find("unknown scheduler 'bogus'"), std::string::npos)
      << text;
  // lifo serves the sweep on coor through the locked deque; rio has no
  // scheduler, so the same knob is refused there: chaos passes it through.
  EXPECT_EQ(run_args({"chaos", "--quick", "--workload", "chain", "--tasks",
                      "32", "--task-size", "20", "--scheduler", "lifo",
                      "--engines", "coor"},
                     &text),
            0)
      << text;
  EXPECT_EQ(run_args({"chaos", "--quick", "--workload", "chain", "--tasks",
                      "32", "--task-size", "20", "--scheduler", "lifo",
                      "--engines", "rio"},
                     &text),
            2)
      << text;
}

TEST(CliChaos, RejectsUnknownEngine) {
  std::string text;
  EXPECT_EQ(run_args({"chaos", "--engines", "rio,warp-drive"}, &text), 1);
  EXPECT_NE(text.find("warp-drive"), std::string::npos) << text;
}

TEST(CliChaos, QuickSweepSurvivesAndMatchesOracle) {
  std::string text;
  const int rc = run_args({"chaos", "--quick", "--workload", "chain",
                           "--tasks", "64", "--task-size", "50", "--workers",
                           "2", "--fault-rate", "0.1", "--retries", "4"},
                          &text);
  EXPECT_EQ(rc, 0) << text;
  EXPECT_NE(text.find("mismatched=0"), std::string::npos) << text;
  EXPECT_NE(text.find("stalled=0"), std::string::npos) << text;
  EXPECT_NE(
      text.find("all surviving runs matched the sequential oracle"),
      std::string::npos)
      << text;
}

TEST(CliChaos, ZeroRateSweepInjectsNothing) {
  std::string text;
  const int rc = run_args({"chaos", "--quick", "--workload", "chain",
                           "--tasks", "32", "--task-size", "20", "--workers",
                           "2", "--fault-rate", "0", "--engines", "rio"},
                          &text);
  EXPECT_EQ(rc, 0) << text;
  EXPECT_NE(text.find("injected-throws=0"), std::string::npos) << text;
}

// ------------------------------------------------------------- profile -----

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(CliProfile, ParsesCommandAndJsonFlag) {
  Options o;
  std::string error;
  EXPECT_TRUE(parse_args({"profile", "--workload", "cholesky", "--engine",
                          "coor", "--json", "/tmp/x.json", "--trace",
                          "/tmp/y.json", "--quick"},
                         o, error))
      << error;
  EXPECT_EQ(o.command, "profile");
  EXPECT_EQ(o.json_path, "/tmp/x.json");
  EXPECT_EQ(o.trace_path, "/tmp/y.json");
  EXPECT_TRUE(o.quick);
}

TEST(CliProfile, EveryObsEngineProducesPhaseTableAndDecomposition) {
  // Capability-driven: profile must work for exactly the supports_obs
  // backends in the registry (the others are covered by RejectsSeqEngine).
  for (const rio::engine::Backend* b :
       rio::engine::Registry::instance().all()) {
    if (!b->caps().supports_obs) continue;
    const std::string engine(b->name());
    std::string text;
    const int rc = run_args({"profile", "--quick", "--workload", "cholesky",
                             "--tiles", "3", "--workers", "2", "--engine",
                             engine.c_str()},
                            &text);
    EXPECT_EQ(rc, 0) << engine << ": " << text;
    EXPECT_NE(text.find("-- profile:"), std::string::npos) << engine;
    EXPECT_NE(text.find("acquire_wait"), std::string::npos) << engine;
    EXPECT_NE(text.find("e_p*e_r"), std::string::npos) << engine;
    EXPECT_NE(text.find("tasks_executed="), std::string::npos) << engine;
  }
}

TEST(CliProfile, WritesObsJsonAndPerfettoTrace) {
  const std::string json = "/tmp/rioflow_test_obs.json";
  const std::string trace = "/tmp/rioflow_test_obs_trace.json";
  std::remove(json.c_str());
  std::remove(trace.c_str());
  std::string text;
  const int rc = run_args({"profile", "--quick", "--workload", "cholesky",
                           "--tiles", "3", "--workers", "2", "--engine",
                           "rio", "--json", json.c_str(), "--trace",
                           trace.c_str()},
                          &text);
  EXPECT_EQ(rc, 0) << text;
  EXPECT_NE(slurp(json).find("\"rio.obs.v1\""), std::string::npos);
  const std::string tr = slurp(trace);
  EXPECT_EQ(tr.front(), '[');
  EXPECT_NE(tr.find("thread_name"), std::string::npos);
  std::remove(json.c_str());
  std::remove(trace.c_str());
}

TEST(CliProfile, SimEngineReportsTickClock) {
  std::string text;
  const int rc = run_args({"profile", "--quick", "--workload", "chain",
                           "--tasks", "32", "--engine", "sim-rio"},
                          &text);
  EXPECT_EQ(rc, 0) << text;
  EXPECT_NE(text.find("clock=ticks"), std::string::npos) << text;
}

TEST(CliProfile, RejectsSeqEngine) {
  // seq lacks supports_obs: the capability validator rejects the hub knob
  // with the structured UnsupportedLaunch error (exit 2, not 1).
  std::string text;
  EXPECT_EQ(run_args({"profile", "--engine", "seq"}, &text), 2);
  EXPECT_NE(text.find("engine 'seq' cannot run this launch"),
            std::string::npos)
      << text;
}

TEST(CliChaos, RejectsVirtualTimeEngineWithExitTwo) {
  // Chaos verifies bytes against the oracle; a simulator never executes
  // bodies, so the pre-flight rejects it with the capability vocabulary.
  std::string text;
  EXPECT_EQ(run_args({"chaos", "--engines", "sim-rio"}, &text), 2);
  EXPECT_NE(text.find("executes_bodies"), std::string::npos) << text;
}

// ------------------------------------------------------------- engines -----

TEST(CliEngines, ListsEveryRegisteredBackend) {
  std::string text;
  EXPECT_EQ(run_args({"engines"}, &text), 0);
  for (const std::string& name : rio::engine::Registry::instance().names())
    EXPECT_NE(text.find(name), std::string::npos) << name << ":\n" << text;
  EXPECT_NE(text.find("executes_bodies"), std::string::npos);
  EXPECT_NE(text.find("virtual_time"), std::string::npos);
}

TEST(CliEngines, JsonReportIsVersionedAndComplete) {
  const std::string json = "/tmp/rioflow_test_engines.json";
  std::remove(json.c_str());
  std::string text;
  EXPECT_EQ(run_args({"engines", "--json", json.c_str()}, &text), 0);
  std::ifstream f(json);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"rio.engines.v1\""), std::string::npos);
  for (const std::string& name : rio::engine::Registry::instance().names())
    EXPECT_NE(doc.find("\"" + name + "\""), std::string::npos) << name;
  EXPECT_NE(doc.find("\"capabilities\""), std::string::npos);
  std::remove(json.c_str());
}

// ------------------------------------------------------ JSON reports -------

TEST(CliJson, ChaosReportIsVersionedAndConsistent) {
  const std::string json = "/tmp/rioflow_test_chaos.json";
  std::remove(json.c_str());
  std::string text;
  const int rc = run_args({"chaos", "--quick", "--workload", "chain",
                           "--tasks", "32", "--task-size", "20", "--workers",
                           "2", "--engines", "rio", "--json", json.c_str()},
                          &text);
  EXPECT_EQ(rc, 0) << text;
  const std::string doc = slurp(json);
  EXPECT_NE(doc.find("\"rio.chaos.v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\": \"transient\""), std::string::npos);
  EXPECT_NE(doc.find("\"evictions\""), std::string::npos);
  EXPECT_NE(doc.find("\"summary\""), std::string::npos);
  EXPECT_NE(doc.find("\"failed\": false"), std::string::npos);
  std::remove(json.c_str());
}

TEST(CliJson, CrashChaosRecoversAndReportsEvictions) {
  const std::string json = "/tmp/rioflow_test_chaos_crash.json";
  std::remove(json.c_str());
  std::string text;
  const int rc = run_args(
      {"chaos", "--quick", "--workload", "chain", "--tasks", "48",
       "--task-size", "20", "--workers", "3", "--faults", "crash",
       "--fault-rate", "0.2", "--json", json.c_str()},
      &text);
  EXPECT_EQ(rc, 0) << text;
  const std::string doc = slurp(json);
  EXPECT_NE(doc.find("\"rio.chaos.v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\": \"crash\""), std::string::npos);
  EXPECT_NE(doc.find("\"failed\": false"), std::string::npos);
  // At this rate every seed kills at least one worker on the 48-task
  // chain, so the sweep must report recoveries, not just survivals.
  EXPECT_NE(text.find("worker-lost=0"), std::string::npos) << text;
  EXPECT_EQ(text.find("evictions=0 "), std::string::npos) << text;
  std::remove(json.c_str());
}

TEST(CliJson, LintReportCarriesFindings) {
  const std::string json = "/tmp/rioflow_test_lint.json";
  std::remove(json.c_str());
  std::string text;
  const int rc = run_args({"lint", "--workload", "lintfix:dead-write",
                           "--json", json.c_str()},
                          &text);
  EXPECT_EQ(rc, 3) << text;  // the fixture is seeded-bad on purpose
  const std::string doc = slurp(json);
  EXPECT_NE(doc.find("\"rio.lint.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"RF002\""), std::string::npos);
  EXPECT_NE(doc.find("\"worst\": \"warning\""), std::string::npos);
  std::remove(json.c_str());
}

TEST(CliJson, CheckReportIsVersioned) {
  const std::string json = "/tmp/rioflow_test_check.json";
  std::remove(json.c_str());
  std::string text;
  const int rc = run_args({"check", "--workload", "cholesky", "--tiles", "3",
                           "--engine", "rio", "--workers", "2", "--json",
                           json.c_str()},
                          &text);
  EXPECT_EQ(rc, 0) << text;
  const std::string doc = slurp(json);
  EXPECT_NE(doc.find("\"rio.check.v1\""), std::string::npos);
  EXPECT_NE(doc.find("interval validation"), std::string::npos);
  std::remove(json.c_str());
}

TEST(CliJson, AliasesReportCanonicalEngineNames) {
  // docs/engines.md: reports never show an alias. `sim` is sim-rio and
  // `pruned` is rio-pruned in every JSON document.
  const std::string profile = "/tmp/rioflow_test_alias_profile.json";
  const std::string blame = "/tmp/rioflow_test_alias_blame.json";
  const std::string chaos = "/tmp/rioflow_test_alias_chaos.json";
  std::string text;
  EXPECT_EQ(run_args({"profile", "--quick", "--engine", "sim", "--workload",
                      "chain", "--tasks", "16", "--json", profile.c_str()},
                     &text),
            0)
      << text;
  EXPECT_NE(text.find(" on sim-rio "), std::string::npos) << text;
  EXPECT_EQ(run_args({"blame", "--quick", "--engine", "pruned", "--workload",
                      "chain", "--tasks", "16", "--json", blame.c_str()},
                     &text),
            0)
      << text;
  EXPECT_EQ(run_args({"chaos", "--quick", "--engines", "pruned",
                      "--workload", "chain", "--tasks", "16", "--json",
                      chaos.c_str()},
                     &text),
            0)
      << text;
  EXPECT_NE(slurp(profile).find("\"engine\": \"sim-rio\""),
            std::string::npos);
  EXPECT_NE(slurp(blame).find("\"engine\": \"rio-pruned\""),
            std::string::npos);
  const std::string cells = slurp(chaos);
  EXPECT_NE(cells.find("\"engine\": \"rio-pruned\""), std::string::npos);
  EXPECT_EQ(cells.find("\"engine\": \"pruned\""), std::string::npos);
  for (const std::string& path : {profile, blame, chaos})
    std::remove(path.c_str());
}

// ------------------------------------------------------------- verify ------

TEST(CliVerify, AliasChecksTheCanonicalEngine) {
  // The alias resolves before the model checker picks its engine, so
  // `pruned` gives exactly rio-pruned's verdicts and counts.
  const auto report = [](const char* engine) {
    const std::string path =
        std::string("/tmp/rioflow_test_verify_") + engine + ".json";
    std::string text;
    EXPECT_EQ(run_args({"verify", "--quick", "--engine", engine, "--json",
                        path.c_str()},
                       &text),
              0)
        << text;
    rio::support::JsonValue doc;
    std::string error;
    EXPECT_TRUE(rio::support::json_parse(slurp(path), doc, error)) << error;
    std::remove(path.c_str());
    return doc;
  };
  const rio::support::JsonValue alias = report("pruned");
  const rio::support::JsonValue canonical = report("rio-pruned");
  ASSERT_NE(alias.find("engine"), nullptr);
  EXPECT_EQ(alias.find("engine")->str_or(""), "rio-pruned");
  for (const char* key : {"explored", "pruned", "steps", "frontiers"}) {
    ASSERT_NE(alias.find(key), nullptr) << key;
    EXPECT_EQ(alias.find(key)->num_or(-1), canonical.find(key)->num_or(-2))
        << key;
  }
  EXPECT_TRUE(alias.find("ok")->boolean);
}

// -------------------------------------------------------------- usage ------

TEST(CliUsage, NamesEveryCommandSchemaFlagAndDefault) {
  const std::string text = rio::cli::usage();
  for (const rio::cli::Command& c : rio::cli::commands()) {
    if (*c.name != '\0') {
      EXPECT_NE(text.find(std::string("\n  ") + c.name + " "),
                std::string::npos)
          << c.name;
    }
    if (*c.schema != '\0') {
      EXPECT_NE(text.find(c.schema), std::string::npos) << c.schema;
    }
  }
  // Every flag heads its own entry, which ends with the default rendered
  // from Options{}.
  const Options defaults;
  for (const rio::cli::Flag& f : rio::cli::flags()) {
    const std::size_t at = text.find("\n  " + f.name + " ");
    ASSERT_NE(at, std::string::npos) << f.name;
    const std::string entry =
        text.substr(at, text.find("\n  -", at + 1) - at);
    const std::string value = f.show ? f.show(defaults) : "";
    if (!value.empty()) {
      EXPECT_NE(entry.find("[" + value + "]"), std::string::npos) << entry;
    }
  }
  // Spot checks straight from the structs, independent of the renderers.
  for (const std::string& value :
       {std::to_string(defaults.workers), std::to_string(defaults.tasks),
        defaults.scheduler, defaults.engines, defaults.fail_on})
    EXPECT_NE(text.find("[" + value + "]"), std::string::npos) << value;
  EXPECT_EQ(rio::cli::flags().size(), 41u);  // plus -h
}

}  // namespace
