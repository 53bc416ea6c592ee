// Task mapping — Section 3.2 (parametric resources allocation).
//
// RIO has no dynamic scheduler: the programmer (or a tool) supplies a
// deterministic closure TaskID -> WorkerID. All workers evaluate the same
// closure on the same task ids (assumption 3 of Section 3.4), so the
// assignment needs no synchronization whatsoever. This header provides the
// closure wrapper plus the mapping families used across the paper's
// workloads: round-robin, contiguous blocks, explicit per-task tables, and
// 2-D block-cyclic owner-computes maps for the tiled linear-algebra flows.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "stf/types.hpp"

namespace rio::rt {

/// Deterministic task-to-worker assignment. Cheap to copy (shared closure).
class Mapping {
 public:
  using Fn = std::function<stf::WorkerId(stf::TaskId)>;

  Mapping() = default;
  Mapping(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::make_shared<Fn>(std::move(fn))) {}

  [[nodiscard]] stf::WorkerId operator()(stf::TaskId t) const {
    RIO_DEBUG_ASSERT(fn_ && *fn_);
    return (*fn_)(t);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool valid() const noexcept { return fn_ && *fn_; }

  /// Stable identity of the underlying closure: copies of one Mapping share
  /// it, distinct constructions never do (while either is alive). Cache key
  /// material for compiled plans (PrunedPlanCache).
  [[nodiscard]] const void* identity() const noexcept { return fn_.get(); }

 private:
  std::string name_;
  std::shared_ptr<Fn> fn_;
};

/// Partial mapping (hybrid execution, src/hybrid): nullopt = "let the
/// dynamic scheduler place it", a WorkerId = "this fine-grained task runs
/// in-order on that worker".
using PartialMapping =
    std::function<std::optional<stf::WorkerId>(stf::TaskId)>;

namespace mapping {

/// task i -> worker i mod p. The default for independent task streams.
inline Mapping round_robin(std::uint32_t num_workers) {
  RIO_ASSERT(num_workers > 0);
  return Mapping("round-robin/" + std::to_string(num_workers),
                 [num_workers](stf::TaskId t) {
                   return static_cast<stf::WorkerId>(t % num_workers);
                 });
}

/// Contiguous blocks of ceil(n/p) tasks per worker. Maximizes per-worker
/// locality of the flow but serializes chains that cross block boundaries.
inline Mapping block(std::uint64_t num_tasks, std::uint32_t num_workers) {
  RIO_ASSERT(num_workers > 0 && num_tasks > 0);
  const std::uint64_t per = (num_tasks + num_workers - 1) / num_workers;
  return Mapping("block/" + std::to_string(num_workers),
                 [per, num_workers](stf::TaskId t) {
                   const auto w = static_cast<stf::WorkerId>(t / per);
                   return w < num_workers ? w : num_workers - 1;
                 });
}

/// Explicit owner table, one WorkerId per task. Used when a workload
/// generator computes its own owner-computes map (e.g. 2-D block-cyclic
/// tile owners for LU/GEMM — see workloads/).
inline Mapping table(std::vector<stf::WorkerId> owners, std::string name = {}) {
  auto shared = std::make_shared<std::vector<stf::WorkerId>>(std::move(owners));
  return Mapping(name.empty() ? "table" : std::move(name),
                 [shared](stf::TaskId t) {
                   RIO_DEBUG_ASSERT(t < shared->size());
                   return (*shared)[t];
                 });
}

/// Everything on one worker — the sequential degenerate case; useful as a
/// correctness baseline and in tests.
inline Mapping single(stf::WorkerId w = 0) {
  return Mapping("single", [w](stf::TaskId) { return w; });
}

/// Arbitrary user closure with a label for reports.
inline Mapping custom(std::string name, Mapping::Fn fn) {
  return Mapping(std::move(name), std::move(fn));
}

/// Eviction rewrite (docs/robustness.md "worker loss"): the assignment for
/// a run that lost worker `dead` out of `old_workers`. Surviving owners
/// keep their tasks but ids above `dead` shift down by one (the engine's
/// worker array compacts); the victim's tasks are respread round-robin
/// over the survivors. A fresh Mapping construction — the new identity()
/// makes PrunedPlanCache recompile plans naturally.
inline Mapping evict(const Mapping& old, stf::WorkerId dead,
                     std::uint32_t old_workers) {
  RIO_ASSERT(old.valid() && old_workers > 1 && dead < old_workers);
  const std::uint32_t survivors = old_workers - 1;
  return Mapping(
      old.name() + "/evict-" + std::to_string(dead),
      [old, dead, survivors](stf::TaskId t) {
        const stf::WorkerId w = old(t);
        if (w == dead) return static_cast<stf::WorkerId>(t % survivors);
        return w > dead ? static_cast<stf::WorkerId>(w - 1) : w;
      });
}

}  // namespace mapping
}  // namespace rio::rt
