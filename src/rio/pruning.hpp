// Task pruning — Section 3.5.
//
// The decentralized model's main drawback is that every worker unrolls the
// whole flow: total unrolling work grows as p * n. Pruning lets each worker
// visit only the tasks it executes. Because a compiled flow is static, we
// can go further than the paper's sketch and precompute, for every access
// of every mapped task, the exact protocol values the worker would have
// accumulated in its local replica had it unrolled everything:
//
//   * for a read:  the Task ID of the last write preceding it, and
//   * for a write: additionally the number of reads since that write.
//
// Pruned execution is then Algorithm 1 with the declare step skipped: a
// worker walks only its own plan slice, SEEDS its private replica from the
// plan (local[data] = {expected_writer, expected_reads}) and runs the very
// same get_* / body / terminate_* path a full unroll uses — zero declare
// operations, O(own tasks) unrolling. Runtime::run_pruned(image, mapping)
// is the entry point (rio/runtime.hpp); it runs the plan its cache holds
// for the whole image. The precomputation is a single O(n) scan shared by
// all workers (analogous to the compiler-assisted pruning used in
// distributed-memory STF runtimes [Agullo et al., TPDS 2017]).
//
// The plan is flat, like the FlowImage it is compiled from: each worker
// gets an array of image-local task indices, and ONE seed array of
// {expected_writer, expected_reads} pairs (16 bytes) runs parallel to the
// image's access array — data and mode already live in the image, so the
// plan never copies them. Compilation is a two-pass O(n) scan with no
// per-task allocation, and a plan is small enough to keep resident.
//
// PrunedPlanCache memoizes ONE plan keyed by (image serial, image
// fingerprint, mapping identity, worker count), holding a copy of the
// mapping so the identity cannot be recycled while the entry lives. A run
// loop pays the O(n) compilation once per distinct (flow, rewrite,
// mapping) triple; switching key evicts the old plan before compiling the
// new one, so two plans never coexist in the cache. Each rt::Runtime owns
// one cache; on the registry path that runtime is the one inside the
// persistent engine::RioExecutor, so a warm Backend::run compiles nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rio/data_object.hpp"
#include "rio/mapping.hpp"
#include "stf/flow_image.hpp"

namespace rio::rt {

/// The protocol state a pruned worker seeds into its replica before one
/// access: exactly what a full unroll would have declared up to the task.
struct PrunedSeed {
  stf::TaskId expected_writer = kNoWrite;  ///< last write before this task
  std::uint64_t expected_reads = 0;        ///< reads since it (writes only)
};

/// The full pruned execution plan: per-worker task index lists plus one
/// seed per image access. Build once, execute many times; valid only for
/// the image it was compiled from (indices and seeds are image-local).
class PrunedPlan {
 public:
  /// O(num_tasks) scan over the image's flat access array; evaluates
  /// `mapping` once per task.
  PrunedPlan(const stf::FlowImage& image, const Mapping& mapping,
             std::uint32_t num_workers);

  [[nodiscard]] std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }

  /// Worker `w`'s tasks as image indices (= task ids), in flow order.
  [[nodiscard]] std::span<const std::uint32_t> tasks_for(
      stf::WorkerId w) const {
    return {order_.data() + offsets_[w], order_.data() + offsets_[w + 1]};
  }

  /// Seed of image access `k` (parallel to image.accesses(); a task's
  /// seeds are [spans[i].begin, spans[i].end)).
  [[nodiscard]] const PrunedSeed& seed(std::size_t k) const noexcept {
    return seeds_[k];
  }

  /// Total tasks across workers (== image.size()).
  [[nodiscard]] std::size_t total_tasks() const noexcept {
    return order_.size();
  }

 private:
  std::vector<std::uint32_t> order_;  // per-worker slices, concatenated
  std::vector<std::size_t> offsets_;  // num_workers + 1 slice bounds
  std::vector<PrunedSeed> seeds_;     // one per image access
};

/// Memoizes the most recent compiled plan keyed by (FlowImage::serial(),
/// FlowImage::fingerprint(), Mapping::identity(), worker count). A repeated
/// Runtime::run_pruned() over the same image+mapping pays ZERO plan
/// recomputation — the property micro_unroll measures and the replay tests
/// assert via compiles(). The fingerprint matters for flowpass rewrites: an
/// optimized image inherits its source's serial, and only the content hash
/// keeps it from reusing the unoptimized plan. The entry owns a copy of its
/// Mapping: without it a destroyed mapping's address could be reused by a
/// different closure and hit the stale plan.
///
/// Not thread-safe: one cache belongs to one driving thread (the engines
/// themselves are already single-entry).
class PrunedPlanCache {
 public:
  /// Returns the cached plan, compiling (and counting) on a miss. A miss
  /// drops the previous entry BEFORE compiling, so the cache never holds
  /// two plans (a caller still holding the old pointer keeps it alive).
  std::shared_ptr<const PrunedPlan> get(const stf::FlowImage& image,
                                        const Mapping& mapping,
                                        std::uint32_t num_workers);

  /// How many plans were actually compiled (cache misses).
  [[nodiscard]] std::uint64_t compiles() const noexcept { return compiles_; }

 private:
  std::uint64_t serial_ = 0;       // FlowImage::serial() (lineage)
  std::uint64_t fingerprint_ = 0;  // FlowImage::fingerprint() (content) —
                                   // rewritten images share the source's
                                   // serial and must never alias its plan
  Mapping mapping_;                // keeps identity() alive while cached
  std::uint32_t workers_ = 0;
  std::shared_ptr<const PrunedPlan> plan_;
  std::uint64_t compiles_ = 0;
};

}  // namespace rio::rt
