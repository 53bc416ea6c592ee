// Test helper: the execution trace of a run recorded in an obs::Hub.
#pragma once

#include <gtest/gtest.h>

#include "stf/trace.hpp"

namespace rio::testutil {

/// The trace stf::trace_from_hub builds from `hub`; a refused conversion
/// fails the calling test and yields an empty trace.
inline stf::Trace recorded_trace(const obs::Hub& hub) {
  stf::Trace trace;
  const stf::ValidationResult r = stf::trace_from_hub(hub, trace);
  EXPECT_TRUE(r.ok()) << r.reason;
  return trace;
}

}  // namespace rio::testutil
