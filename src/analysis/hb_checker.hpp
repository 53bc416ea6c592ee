// Precise happens-before race checking over recorded sync events.
//
// The interval test in Trace::validate calls two conflicting tasks racy
// only when their [start,end) wall-clock intervals overlap — a lucky
// scheduling gap hides the race. This checker ignores wall clocks entirely:
// it replays the acquire/release events the engines record (Launch::
// collect_sync) in global stamp order, builds vector clocks, and reports
// every conflicting access pair that no happens-before path orders. A race
// that happened to execute without overlapping is still reported.
//
// Soundness contract with the engines (rio::rt::Runtime, coor::Runtime):
//   * a task's ACQUIRE stamps are drawn after all its dependency waits
//     complete (and after reduction locks are held);
//   * a task's RELEASE stamps are drawn after its body, before anything is
//     published that could admit a successor.
// Hence every release an acquire could have observed carries a smaller
// stamp, and replaying in stamp order never fabricates an ordering the
// execution did not enforce — no false races on correct runs.
//
// Finding codes:
//   RC301  race                 error    conflicting pair, HB-unordered
//   RC302  no sync events       warning  trace empty (collect_sync off?)
//   RC303  pair check truncated info     quadratic pair scan hit its cap
//   RC304  incomplete trace     warning  flow tasks missing from the trace
#pragma once

#include <cstdint>

#include "analysis/finding.hpp"
#include "stf/task_flow.hpp"
#include "stf/trace.hpp"

namespace rio::analysis {

struct HbOptions {
  /// The pair scan is quadratic in tasks-per-data; stop after this many
  /// comparisons and note the truncation (RC303).
  std::uint64_t max_pair_checks = 1u << 22;
  /// Cap on individual RC301 findings; the rest fold into one aggregate.
  std::uint64_t max_reported_races = 100;
};

/// Replays `sync` (recorded while executing `flow`) and reports every
/// conflicting, happens-before-unordered access pair.
[[nodiscard]] Report check_happens_before(const stf::TaskFlow& flow,
                                          const stf::SyncTrace& sync,
                                          const HbOptions& opts = {});

}  // namespace rio::analysis
