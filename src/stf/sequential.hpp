// Sequential reference executor.
//
// The simplest execution model that satisfies STF: run the tasks one by one
// in flow order (Section 2.2 calls this out as semantically correct but a
// poor use of a parallel machine). It is the correctness oracle for every
// other engine — any valid parallel execution must leave the data objects
// bitwise identical to this executor's result — and it measures t(g), the
// sequential time at granularity g, needed by the efficiency decomposition.
#pragma once

#include "support/stats.hpp"
#include "stf/flow_image.hpp"

namespace rio::stf {

class SequentialExecutor {
 public:
  /// Runs every task of a compiled image (stf/flow_image.hpp) in order on
  /// the calling thread. Returns single-worker RunStats (all time is either
  /// task or runtime bucket). The task bucket is estimated from the sampled
  /// bodies (obs::SpanSampler: about one in 64, every one when bodies run
  /// 2 µs or longer); `tasks_timed` says how many were timed.
  support::RunStats run(const FlowImage& image) const;
};

}  // namespace rio::stf
