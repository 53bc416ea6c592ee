// Exporters for the telemetry hub: Chrome/Perfetto trace JSON and the
// versioned obs.json metrics schema (docs/observability.md).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace rio::obs {

/// Run identity + precomputed decomposition carried into obs.json. The
/// e_p / e_r doubles are computed by the caller (obs does not depend on
/// metrics) and written with %.17g so they round-trip bit-for-bit.
struct ObsJsonMeta {
  std::string engine;
  std::string workload;
  double e_p = 1.0;
  double e_r = 1.0;
};

/// Chrome trace-event JSON, Perfetto-compatible: one track per worker with
/// phase slices ("X"), instant markers ("i") for stall snapshots and
/// injected faults, and derived counter tracks ("C") for executing /
/// waiting worker counts. Nanosecond clocks are emitted in microseconds;
/// tick clocks are emitted with one tick = one microsecond. Slices are
/// named after their phase; with `task_name`, body slices are named after
/// their task instead.
void write_perfetto_trace(
    const Hub& hub, std::ostream& os,
    const std::function<std::string(std::uint64_t task)>& task_name = {});

/// Versioned machine-readable metrics dump — schema "rio.obs.v1": phase
/// and bucket totals, counter snapshot, per-worker breakdown, recorder
/// occupancy, and the e_p·e_r decomposition.
void write_obs_json(const Hub& hub, const support::RunStats& stats,
                    const ObsJsonMeta& meta, std::ostream& os);

}  // namespace rio::obs
