// Internal to src/cli: the command and flag tables that parse(), usage()
// and run() read, the one error type, and the run pipeline every command
// shares (engine -> workload -> launch -> image -> run -> report). Each
// command lives in its own file and holds only its own logic.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/analysis.hpp"
#include "cli/cli.hpp"
#include "engine/registry.hpp"
#include "support/format.hpp"
#include "workloads/workloads.hpp"

namespace rio::cli {

/// Every command error. run() catches it once, prints "rioflow: <message>"
/// and returns `code`: 1 bad configuration, 2 execution problem.
struct Fail {
  int code;
  std::string message;
};

/// One command. parse() checks names and operands against the table, run()
/// dispatches through it and usage() lists it.
struct Command {
  const char* name;      ///< "" is the default: run the workload
  const char* operands;  ///< positional operands; "" = takes none
  const char* schema;    ///< document --json writes; "" = none
  const char* summary;
  int (*entry)(const Options&, std::ostream& out);
};

/// One long flag. parse() hands its value to `set`, which validates it
/// (throwing Fail) and stores it; usage() prints `help` followed by the
/// default `show` renders from Options{} (no default shown when null).
struct Flag {
  std::string name;
  std::string metavar;  ///< "" for a switch
  std::string help;
  std::function<void(Options&, const std::string&)> set;
  std::function<std::string(const Options&)> show;
};

[[nodiscard]] const std::vector<Command>& commands();
[[nodiscard]] const std::vector<Flag>& flags();

// The commands, one file per command or family.
int run_workload(const Options& o, std::ostream& out);  // run.cpp
int run_lint(const Options& o, std::ostream& out);      // analyze.cpp
int run_check(const Options& o, std::ostream& out);     // analyze.cpp
int run_chaos(const Options& o, std::ostream& out);     // chaos.cpp
int run_profile(const Options& o, std::ostream& out);   // observe.cpp
int run_blame(const Options& o, std::ostream& out);     // observe.cpp
int run_obs_diff(const Options& o, std::ostream& out);  // observe.cpp
int run_engines(const Options& o, std::ostream& out);   // engines.cpp
int run_verify(const Options& o, std::ostream& out);    // verify.cpp
int run_optimize(const Options& o, std::ostream& out);  // optimize.cpp

// ---- the shared pipeline (common.cpp); every step throws Fail ----------

/// --engine (or any name or alias) through the registry. Reports print
/// the result's canonical name().
[[nodiscard]] const engine::Backend& find_engine(const std::string& name);

/// Counter bodies for real engines; none for virtual-time ones, which
/// never execute them.
[[nodiscard]] workloads::BodyKind body_for(const engine::Backend& backend);

/// The selected --workload with the given task bodies.
[[nodiscard]] workloads::Workload build_workload(const Options& o,
                                                 workloads::BodyKind body);

/// The hybrid partition a lintfix:* phase fixture carries (empty for every
/// other workload).
[[nodiscard]] std::vector<analysis::LintPhase> fixture_phases(
    const std::string& workload);

[[nodiscard]] rt::Mapping make_mapping(const Options& o,
                                       const workloads::Workload& wl);
[[nodiscard]] support::WaitPolicy parse_policy(const std::string& name);
[[nodiscard]] analysis::Severity parse_fail_on(const std::string& name);

/// The engine::Launch of the CLI knobs: workers, mapping, policy and
/// scheduler. Under --scheduler priority on a backend that
/// honours a scheduler it also stores bottom-level priorities in the flow,
/// so it must run before the image is compiled. Capability mismatches are
/// the registry's job: they surface from the run as UnsupportedLaunch.
[[nodiscard]] engine::Launch make_launch(const Options& o,
                                         const engine::Backend& backend,
                                         workloads::Workload& wl);

/// Runs the image, under engine::run_supervised when `supervised`: a
/// checkpointed completion frontier plus evict-and-remap and resume on a
/// permanent worker loss.
engine::Outcome execute(const engine::Backend& backend,
                        const stf::FlowImage& image,
                        const engine::Launch& launch, bool supervised);

/// --quick: the shrunk sizes chaos, profile and blame use for CI gates.
[[nodiscard]] Options shrink_if_quick(Options o);

using DataImage = std::vector<std::vector<std::byte>>;

/// Byte image of every data object in a registry: the oracle comparand.
[[nodiscard]] DataImage data_image(const stf::DataRegistry& reg);

/// The sequential oracle: the workload with fold bodies, executed in flow
/// order. Any fault-free, dependency-respecting run reproduces its bytes.
[[nodiscard]] DataImage oracle(const Options& o);

/// Writes a report to `path` unless it is empty, then says so on `out`.
void write_report(const std::string& path, std::ostream& out,
                  const std::function<void(std::ostream&)>& write);

/// --csv or the aligned terminal layout.
void print_table(const support::Table& table, bool csv, std::ostream& out);

/// One double through a printf `format`.
[[nodiscard]] std::string printf_double(const char* format, double v);

/// "e_p = ..., e_r = ..., e_p*e_r = ..." of a run's cumulative buckets.
void print_decompose(const support::RunStats& stats, std::ostream& out);

/// A whole decimal string as T: an unsigned integer within T's range (for
/// int, 0 to INT_MAX), or a finite double.
template <class T>
[[nodiscard]] bool parse_number(const std::string& s, T& out) {
  if constexpr (std::is_floating_point_v<T>) {
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != s.c_str() && *end == '\0' && std::isfinite(out);
  } else {
    std::uint64_t v = 0;
    const char* e = s.data() + s.size();
    const auto r = std::from_chars(s.data(), e, v);
    if (r.ec != std::errc{} || r.ptr != e ||
        v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
      return false;
    out = static_cast<T>(v);
    return true;
  }
}

/// The non-empty `items` joined with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               const char* sep);

[[nodiscard]] std::vector<std::string> split_csv(const std::string& s);

/// "--retry-tasks id=N,id=N" into the policy's per-task attempt budgets.
void parse_retry_tasks(const std::string& spec, support::RetryPolicy& retry);

}  // namespace rio::cli
