// rioflow — command-line driver over the whole library.
//
// Lets a user generate any built-in workload, execute it on any engine
// (sequential / RIO / pruned RIO / centralized OoO / virtual-time
// simulators), and emit timing, the Section-2.3 efficiency decomposition,
// Graphviz DOT of the DAG, and Chrome traces — without writing C++.
// The parsing/dispatch logic lives in this library so the test suite can
// drive it; tools/rioflow.cpp is a thin main().
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rio::cli {

// One field per flag; the flag table in cli.cpp documents each of them
// and renders its default in usage().
struct Options {
  // Subcommand from the command table (cli.cpp); "" runs the workload.
  std::string command;

  // Positional (non-flag) operands after the command — only obs-diff
  // takes any (the two report files to compare).
  std::vector<std::string> inputs;

  // Workload selection.
  std::string workload = "independent";  ///< a generator or lintfix:<name>
  std::uint64_t tasks = 4096;   ///< synthetic workloads: task count
  std::uint32_t tiles = 8;      ///< tiled workloads: grid dimension
  std::uint32_t width = 24;     ///< taskbench: points per step
  std::uint32_t steps = 32;     ///< taskbench/stencil: time steps
  std::uint64_t task_size = 1000;  ///< counter iterations / virtual cost
  std::uint64_t seed = 42;

  // Engine selection.
  std::string engine = "rio";  ///< any engine::Registry name or alias;
                               ///< default overridable via RIOFLOW_ENGINE
  bool engine_given = false;   ///< --engine was passed explicitly
  std::uint32_t workers = 2;
  std::string mapping = "owner";    ///< rr | block | owner
  std::string policy = "yield";     ///< yield | block
  std::string scheduler = "fifo";   ///< fifo | lifo | locality | priority
  int repeat = 1;

  // Analysis (lint / check).
  std::uint32_t counter_bits = 64;  ///< lint: protocol counter width (RP2xx)
  std::string fail_on = "warning";  ///< exit 3 at this severity

  // Model checking (verify).
  int max_preemptions = -1;  ///< bound context switches; < 0 = unbounded
  bool naive = false;        ///< disable DPOR (full naive enumeration)

  // Chaos sweep (docs/robustness.md).
  double fault_rate = 0.05;         ///< base P(throw) per (task, attempt)
  std::uint32_t fault_seeds = 3;    ///< fault-plan seeds per (engine, rate)
  std::uint32_t retries = 3;        ///< RetryPolicy::max_attempts
  std::uint64_t watchdog_ms = 2000; ///< progress watchdog window
  std::string engines = "rio,rio-pruned,coor,hybrid";  ///< sweep targets
  std::string faults = "transient"; ///< fault kinds to sweep
  std::string retry_tasks;          ///< per-task retry overrides "id=N,..."
  bool quick = false;               ///< shrink the sweep for CI gates
  bool workload_given = false;      ///< --workload was passed explicitly

  // Recovery: run under engine::run_supervised, so a permanent worker loss
  // is survived by evict-and-remap + resume from the checkpointed
  // completion frontier instead of aborting the run.
  bool recover = false;

  // Optimization pipeline (optimize command; docs/passes.md).
  std::string passes;                ///< csv of flowpass::Registry names;
                                     ///< empty = all registered passes
  bool tune = false;                 ///< score map candidates by simulation
  bool report = false;               ///< print the per-pass report table
  std::uint64_t fuse_threshold = 1000;  ///< fuse: cost cutoff (also RF501)

  // Causal profiling (profile / blame) and obs-diff.
  bool blame = false;           ///< profile: also run the causal analyzer
  std::uint64_t sample = 1;     ///< record every Nth span (1 = all)
  std::size_t top_edges = 10;   ///< blame: stall edges shown / in JSON
  double threshold = 5.0;       ///< obs-diff: regression threshold (percent)

  // Outputs.
  bool summary = false;       ///< print flow structure summary
  bool decompose = false;     ///< print e_p / e_r decomposition
  std::string dot_path;       ///< write DAG as Graphviz DOT
  std::string trace_path;     ///< write the obs recorder's Perfetto trace
                              ///< (supports_obs engines)
  std::string json_path;      ///< the command's report (its schema is in
                              ///< the command table)
  bool csv = false;

  bool help = false;
};

/// Parses argv. On failure returns false and fills `error`.
bool parse(int argc, const char* const* argv, Options& out,
           std::string& error);

/// Usage text.
std::string usage();

/// Executes per the options; prints results to `out`. Returns process exit
/// code (0 ok, 1 bad configuration — unknown engine/workload/option, 2
/// execution problem — including a structured engine::UnsupportedLaunch
/// when a knob exceeds the backend's capabilities, 3 analysis
/// findings at or above the --fail-on severity — or, for chaos, any stall,
/// oracle mismatch or unexpected error in the sweep).
int run(const Options& options, std::ostream& out, std::ostream& err);

}  // namespace rio::cli
