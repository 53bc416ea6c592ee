// Umbrella header for the STF programming-model layer.
#pragma once

#include "stf/access_guard.hpp"    // IWYU pragma: export
#include "stf/data_registry.hpp"   // IWYU pragma: export
#include "stf/dependency.hpp"      // IWYU pragma: export
#include "stf/failure.hpp"         // IWYU pragma: export
#include "stf/frontier.hpp"        // IWYU pragma: export
#include "stf/resilience.hpp"      // IWYU pragma: export
#include "stf/sequential.hpp"      // IWYU pragma: export
#include "stf/task.hpp"            // IWYU pragma: export
#include "stf/task_flow.hpp"       // IWYU pragma: export
#include "stf/flow_image.hpp"      // IWYU pragma: export
#include "stf/graph_export.hpp"    // IWYU pragma: export
#include "stf/trace.hpp"           // IWYU pragma: export
#include "stf/types.hpp"           // IWYU pragma: export
