// The command table, the flag table, and the three public entry points
// that read them: parse(), usage() and run().
#include "cli/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "cli/common.hpp"

namespace rio::cli {
namespace {

/// Binders: each makes a Flag over one Options field, with the setter
/// that parses and validates its value and the default renderer.
Flag on(const char* name, bool Options::*field, const char* help) {
  return {name, "", help, [field](Options& o, const std::string&) {
            o.*field = true;
          }, nullptr};
}

/// A string, stored as given; `mark` (if any) records that it was given.
Flag text(const char* name, const char* metavar,
          std::string Options::*field, const char* help,
          bool Options::*mark = nullptr) {
  return {name, metavar, help,
          [field, mark](Options& o, const std::string& v) {
            o.*field = v;
            if (mark != nullptr) o.*mark = true;
          },
          [field](const Options& o) { return o.*field; }};
}

/// A number of the field's type, at least `min`.
template <class T>
Flag number(const char* name, const char* metavar, T Options::*field,
            const char* help, T min = std::numeric_limits<T>::lowest()) {
  const auto show = [](T v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  return {name, metavar, help,
          [=](Options& o, const std::string& v) {
            T n{};
            if (!parse_number(v, n))
              throw Fail{1, "bad numeric value for " + std::string(name) +
                                ": '" + v + "'"};
            if (n < min)
              throw Fail{1, std::string(name) + " must be >= " + show(min)};
            o.*field = n;
          },
          [=](const Options& o) { return show(o.*field); }};
}

/// `base` with a different default rendering.
Flag shown(Flag base, std::function<std::string(const Options&)> show) {
  base.show = std::move(show);
  return base;
}

/// Appends `text` after `lead`, word-wrapped to 79 columns with
/// continuation lines under the text's first column.
void wrap(std::ostream& os, const std::string& lead, const std::string& text) {
  constexpr std::size_t kIndent = 22;
  constexpr std::size_t kWidth = 79;
  std::string line = lead;
  line.resize(std::max(line.size() + 1, kIndent), ' ');
  std::istringstream words(text);
  std::string word;
  bool fresh = true;
  while (words >> word) {
    if (!fresh && line.size() + 1 + word.size() > kWidth) {
      os << line << '\n';
      line.assign(kIndent, ' ');
      fresh = true;
    }
    line += (fresh ? "" : " ") + word;
    fresh = false;
  }
  os << line << '\n';
}

const Command* find_command(const std::string& name) {
  for (const Command& c : commands())
    if (name == c.name) return &c;
  return nullptr;
}

/// The named commands (only those taking operands, if asked), '|'-joined.
std::string command_names(bool with_operands) {
  std::vector<std::string> names;
  for (const Command& c : commands())
    if (!with_operands || *c.operands != '\0') names.emplace_back(c.name);
  return join(names, "|");
}

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"", "", "", "generate the workload and execute it on --engine",
       run_workload},
      {"lint", "", "rio.lint.v1",
       "static flow analysis, nothing executes (RF/RM/RP finding codes; "
       "docs/analysis.md)", run_lint},
      {"check", "", "rio.check.v1",
       "execute on a supports_sync engine recording sync events, then run "
       "the happens-before race checker (RC codes)", run_check},
      {"chaos", "", "rio.chaos.v2",
       "sweep fault plans (kinds x seeds x rates x engines) with retries "
       "and the watchdog; check survivors against the sequential oracle",
       run_chaos},
      {"profile", "", "rio.obs.v1",
       "execute once with the obs telemetry hub: per-worker phase totals, "
       "counters and e_p*e_r (docs/observability.md)", run_profile},
      {"blame", "", "rio.blame.v1",
       "execute once with the flight recorder: the executed DAG's critical "
       "path, per-task / per-handle blame and top stall edges", run_blame},
      {"obs-diff", "OLD NEW", "rio.obsdiff.v1",
       "compare two rio.obs.v1 reports; exit 3 when wall time or an "
       "overhead phase grew, or e_p*e_r dropped, beyond --threshold",
       run_obs_diff},
      {"engines", "", "rio.engines.v1",
       "list registered backends with their capability flags", run_engines},
      {"verify", "", "rio.verify.v1",
       "model-check the real protocol code of rio|rio-pruned|coor over "
       "every interleaving (DPOR) of a small flow", run_verify},
      {"optimize", "", "rio.optimize.v1",
       "run the flowpass pipeline, byte-verify it against the sequential "
       "oracle, compare optimized vs unoptimized runs (docs/passes.md)",
       run_optimize},
  };
  return table;
}

const std::vector<Flag>& flags() {
  using O = Options;
  static const std::vector<Flag> table = {
      on("--help", &O::help, "(or -h) print this text"),
      text("--workload", "W", &O::workload,
           "independent | random | chain | gemm | lu | cholesky | stencil | "
           "taskbench:<trivial | no_comm | stencil_1d | stencil_1d_periodic "
           "| fft | tree | all_to_all | spread> | lintfix:<uninit-read | "
           "dead-write | unused-handle | redundant-edge | race | "
           "phase-mapping | empty-phase | cross-phase-dep | tiny-tasks>",
           &O::workload_given),
      text("--engine", "E", &O::engine,
           "any engine or alias listed above; the default comes from "
           "RIOFLOW_ENGINE when it is set",
           &O::engine_given),
      number("--workers", "N", &O::workers, "worker threads / virtual cores",
             1u),
      number("--tasks", "N", &O::tasks, "synthetic workloads: task count"),
      number("--tiles", "N", &O::tiles, "tiled workloads: grid dimension"),
      number("--width", "N", &O::width, "taskbench/stencil width"),
      number("--steps", "N", &O::steps, "taskbench/stencil steps"),
      number("--task-size", "N", &O::task_size,
             "counter iterations / virtual instructions"),
      text("--mapping", "M", &O::mapping, "rr | block | owner"),
      text("--policy", "P", &O::policy, "yield | block (wait policy)"),
      text("--scheduler", "S", &O::scheduler,
           "fifo | lifo | locality | priority (coor)"),
      number("--repeat", "N", &O::repeat, "repetitions (best time reported)",
             1),
      number("--seed", "N", &O::seed, "workload seed"),
      number("--counter-bits", "N", &O::counter_bits,
             "lint: protocol counter width for RP2xx", 1u),
      text("--fail-on", "S", &O::fail_on,
           "lint/check: exit 3 at error | warning | info"),
      number("--fault-rate", "R", &O::fault_rate,
             "chaos: P(injected fault) per (task, attempt), in [0, 1]"),
      text("--faults", "K", &O::faults,
           "chaos: transient | stall | crash (permanent worker death, "
           "recovered by evict-and-remap + resume) | all"),
      number("--fault-seeds", "N", &O::fault_seeds,
             "chaos: fault-plan seeds per (engine, rate)", 1u),
      number("--retries", "N", &O::retries,
             "chaos: retry budget (max attempts per task)", 1u),
      text("--retry-tasks", "S", &O::retry_tasks,
           "per-task retry overrides \"id=N,id=N\""),
      number("--watchdog-ms", "N", &O::watchdog_ms,
             "chaos: progress watchdog window, 0 disables"),
      text("--engines", "CSV", &O::engines,
           "chaos: executes_bodies engines to sweep"),
      on("--recover", &O::recover,
         "run/profile/blame: on worker loss, evict, remap and resume from "
         "the checkpointed frontier (supports_recovery engines); verify: "
         "also explore a mid-flow worker death and the evicted resume"),
      shown(number("--max-preemptions", "N", &O::max_preemptions,
                    "verify: bound scheduler preemptions"),
            [](const O& o) {
              return o.max_preemptions < 0
                         ? std::string("unbounded")
                         : std::to_string(o.max_preemptions);
            }),
      on("--naive", &O::naive, "verify: disable DPOR (full enumeration)"),
      shown(text("--passes", "CSV", &O::passes,
                 "optimize: passes to apply, in order"),
            [](const O& o) { return o.passes.empty() ? "all" : o.passes; }),
      on("--tune", &O::tune,
         "optimize: score map candidates by sim-rio makespan"),
      on("--report", &O::report, "optimize: print the per-pass report table"),
      number("--fuse-threshold", "N", &O::fuse_threshold,
             "fuse/lint RF501: tiny-task cost cutoff"),
      on("--blame", &O::blame, "profile: also run the causal analyzer"),
      number("--sample", "N", &O::sample,
             "profile/blame: record every Nth span", std::uint64_t{1}),
      number("--top", "K", &O::top_edges,
             "blame: stall edges printed / kept in --json"),
      number("--threshold", "P", &O::threshold,
             "obs-diff: regression threshold in percent", 0.0),
      on("--quick", &O::quick,
         "chaos/profile/blame/verify: shrunk run for CI gates"),
      on("--summary", &O::summary, "print flow structure summary"),
      on("--decompose", &O::decompose,
         "print e_p/e_r efficiency decomposition"),
      text("--dot", "FILE", &O::dot_path,
           "write the dependency DAG as Graphviz DOT"),
      text("--trace", "FILE", &O::trace_path,
           "write the recorder's Perfetto trace (supports_obs engines; run "
           "names body slices after their tasks; its dep flow arrows "
           "mirror the wait edges)"),
      text("--json", "FILE", &O::json_path,
           "write the command's machine-readable report (schemas above)"),
      on("--csv", &O::csv, "machine-readable tables"),
  };
  return table;
}

std::string usage() {
  std::ostringstream os;
  os << "rioflow — run STF workloads on the RIO execution models\n\n"
        "usage: rioflow [command] [options]\n\ncommands:\n";
  for (const Command& c : commands()) {
    std::string summary = c.summary;
    if (*c.schema != '\0')
      summary += std::string(" (--json: ") + c.schema + ")";
    wrap(os, std::string("  ") + (*c.name != '\0' ? c.name : "(none)") +
                 " " + c.operands,
         summary);
  }
  // The engine list comes from the registry so it can never drift from
  // the code; `rioflow engines` prints the capability matrix.
  const engine::Registry& registry = engine::Registry::instance();
  std::string engines = registry.names_csv(" | ") + "; aliases:";
  for (const std::string& name : registry.names())
    for (const std::string& alias : registry.aliases_for(name))
      engines += " " + alias + "=" + name;
  os << "\n";
  wrap(os, "engines:", engines);
  os << "\noptions:\n";
  const Options defaults;
  for (const Flag& f : flags()) {
    const std::string value = f.show ? f.show(defaults) : "";
    wrap(os, "  " + f.name + " " + f.metavar,
         f.help + (value.empty() ? "" : " [" + value + "]"));
  }
  return os.str();
}

bool parse(int argc, const char* const* argv, Options& o,
           std::string& error) {
  int i = 1;
  if (argc > 1 && argv[1][0] != '-') {
    if (*argv[1] == '\0' || find_command(argv[1]) == nullptr) {
      error = std::string("unknown command '") + argv[1] + "' (" +
              command_names(false) + ")";
      return false;
    }
    o.command = argv[i++];
  }
  const Command* command = find_command(o.command);
  try {
    for (; i < argc; ++i) {
      const std::string arg = std::string(argv[i]) == "-h" ? "--help" : argv[i];
      const Flag* flag = nullptr;
      for (const Flag& f : flags())
        if (arg == f.name) flag = &f;
      if (flag != nullptr) {
        if (!flag->metavar.empty() && i + 1 >= argc)
          throw Fail{1, arg + " needs a value"};
        flag->set(o, flag->metavar.empty() ? "" : argv[++i]);
        if (o.help) return true;
      } else if (!arg.empty() && arg[0] != '-') {
        if (command == nullptr || *command->operands == '\0')
          throw Fail{1, "unexpected operand '" + arg + "' (only " +
                            command_names(true) + " takes positional files)"};
        o.inputs.push_back(arg);
      } else {
        throw Fail{1, "unknown option '" + arg + "'"};
      }
    }
  } catch (const Fail& f) {
    error = f.message;
    return false;
  }
  // Default-engine config: RIOFLOW_ENGINE fills in when --engine was not
  // given. Resolution (and the unknown-name error with its choices list)
  // happens later in the registry, like any other engine name or alias.
  const char* env = std::getenv("RIOFLOW_ENGINE");
  if (!o.engine_given && env != nullptr && *env != '\0') o.engine = env;
  return true;
}

int run(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.help) {
    out << usage();
    return 0;
  }
  try {
    const Command* command = find_command(o.command);
    if (command == nullptr)
      throw Fail{1, "unknown command '" + o.command + "'"};
    return command->entry(o, out);
  } catch (const Fail& f) {
    err << "rioflow: " << f.message << "\n";
    return f.code;
  } catch (const engine::UnsupportedLaunch& e) {
    // One registry-generated error for every knob a backend cannot honour.
    err << "rioflow: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace rio::cli
