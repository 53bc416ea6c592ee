// FlowImage: a compiled, structure-of-arrays image of a task flow.
//
// The paper's cost model (Section 3.4) prices a non-mapped task at "one or
// two writes to private memory" per access — but replaying a
// std::vector<Task> drags every task's std::function body and heap name
// through the cache on each of the p×n unroll steps. A FlowImage is a
// one-shot compilation of a TaskFlow into the densest metadata the unroll
// loop can consume:
//
//   * one flat contiguous Access array for the whole flow;
//   * a parallel {access_begin, access_end} span per task (8 bytes);
//   * parallel cost[] and priority[] arrays for the simulators/schedulers;
//   * names interned into a single character arena (offsets kept out of the
//     hot arrays entirely);
//   * task bodies stay OUT of the image — the cold Task descriptors are
//     reachable via task(i) only when a worker actually executes a body.
//
// Everything lives in ONE arena allocation, so a replay walks two small
// prefetch-friendly arrays instead of ~200-byte Task records. The image is
// immutable after compile() and carries a process-unique serial(), which
// lets downstream caches (rio::rt::PrunedPlanCache) key compiled artifacts
// by identity instead of recomputing per run.
//
// An image always covers a whole flow, and task i has id i. Every engine and
// simulator runs an image; those that run slices take an ImageRange, the
// only slice, to which an image converts.
//
// Lifetime: the image BORROWS the source flow's Task array and DataRegistry
// (for bodies and data resolution); the flow must outlive the image. The
// exception is compile_owned(): a rewritten image (flowpass output) OWNS its
// Task vector and only borrows the registry, so optimization pipelines can
// hand images around without keeping every intermediate flow alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "support/assert.hpp"
#include "stf/task_flow.hpp"
#include "stf/types.hpp"

namespace rio::stf {

class FlowImage {
 public:
  /// Half-open index range [begin, end) into the flat access array.
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  FlowImage() = default;
  FlowImage(FlowImage&&) noexcept = default;
  FlowImage& operator=(FlowImage&&) noexcept = default;
  FlowImage(const FlowImage&) = delete;
  FlowImage& operator=(const FlowImage&) = delete;

  /// Compiles a whole flow. O(n + total accesses + total name bytes).
  [[nodiscard]] static FlowImage compile(const TaskFlow& flow) {
    return FlowImage(flow.tasks().data(), flow.num_tasks(), flow.registry());
  }

  /// Compiles an image that OWNS its task vector (the rewriter/flowpass
  /// path). The registry is still borrowed — every rewrite of a flow talks
  /// about the same data objects, so the SOURCE flow's registry must outlive
  /// all derived images. `lineage_serial` carries the source image's serial
  /// forward: all rewrites of one compilation share a serial and are told
  /// apart by fingerprint().
  [[nodiscard]] static FlowImage compile_owned(
      std::shared_ptr<const std::vector<Task>> tasks,
      const DataRegistry& registry, std::uint64_t lineage_serial) {
    RIO_ASSERT(tasks != nullptr);
    FlowImage img(tasks->data(), tasks->size(), registry);
    img.owned_ = std::move(tasks);
    img.serial_ = lineage_serial;
    return img;
  }

  // -- whole-image observers ------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] std::size_t num_data() const noexcept { return num_data_; }
  [[nodiscard]] const DataRegistry& registry() const noexcept {
    return *registry_;
  }
  [[nodiscard]] std::size_t num_accesses_total() const noexcept {
    return total_acc_;
  }
  [[nodiscard]] std::uint64_t total_cost() const noexcept {
    return total_cost_;
  }

  /// Identity of this compilation LINEAGE (cache key material). Rewritten
  /// images inherit the source image's serial, so downstream caches must
  /// pair it with fingerprint() to tell rewrites apart.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

  /// 64-bit content hash of the compiled metadata: task count and per-task
  /// (cost, priority, name, access list). Two images with the same serial
  /// but different fingerprints are different rewrites of the same flow;
  /// caches key on (serial, fingerprint).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  // -- hot metadata (dense, arena-backed) -----------------------------------

  [[nodiscard]] const Span* spans() const noexcept { return spans_; }
  [[nodiscard]] const Access* accesses() const noexcept { return acc_; }

  [[nodiscard]] TaskId task_id(std::size_t i) const noexcept { return i; }
  [[nodiscard]] const Access* acc_begin(std::size_t i) const noexcept {
    return acc_ + spans_[i].begin;
  }
  [[nodiscard]] const Access* acc_end(std::size_t i) const noexcept {
    return acc_ + spans_[i].end;
  }
  [[nodiscard]] std::size_t num_accesses(std::size_t i) const noexcept {
    return spans_[i].end - spans_[i].begin;
  }
  [[nodiscard]] std::uint64_t cost(std::size_t i) const noexcept {
    return costs_[i];
  }
  [[nodiscard]] std::int32_t priority(std::size_t i) const noexcept {
    return prios_[i];
  }

  // -- cold data (touched only when executing / reporting) ------------------

  /// Interned name (empty view for unnamed tasks).
  [[nodiscard]] std::string_view name(std::size_t i) const noexcept {
    return {name_chars_ + name_off_[i], name_off_[i + 1] - name_off_[i]};
  }

  /// The source descriptor — body, full access list. Out of the image's hot
  /// arrays on purpose.
  [[nodiscard]] const Task& task(std::size_t i) const noexcept {
    return src_[i];
  }

 private:
  /// Ids of `tasks` must run 0..n-1 (a task's id is its flow position).
  FlowImage(const Task* tasks, std::size_t n, const DataRegistry& registry);

  std::unique_ptr<std::byte[]> arena_;
  // Interior pointers into arena_ (fixed after compile).
  const std::uint64_t* costs_ = nullptr;
  const Span* spans_ = nullptr;
  const std::int32_t* prios_ = nullptr;
  const std::uint32_t* name_off_ = nullptr;  // n_ + 1 entries
  const Access* acc_ = nullptr;
  const char* name_chars_ = nullptr;

  const Task* src_ = nullptr;
  const DataRegistry* registry_ = nullptr;
  // Set only by compile_owned(): keeps src_ alive for rewritten images.
  std::shared_ptr<const std::vector<Task>> owned_;
  std::size_t n_ = 0;
  std::size_t num_data_ = 0;
  std::size_t total_acc_ = 0;
  std::uint64_t total_cost_ = 0;
  std::uint64_t serial_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// A contiguous slice of a FlowImage: the run input of rio, coor and their
/// simulators. A FlowImage converts to its whole-image range; hybrid phases
/// run sub-ranges. Index i is LOCAL to the slice while task_id(i) stays
/// GLOBAL. A range borrows its image, so it cannot be made from a temporary.
class ImageRange {
 public:
  ImageRange(const FlowImage& image)
      : img_(&image), first_(0), count_(image.size()) {}
  ImageRange(FlowImage&&) = delete;

  ImageRange(const FlowImage& image, std::size_t first, std::size_t count)
      : img_(&image), first_(first), count_(count) {
    RIO_ASSERT(first + count <= image.size());
  }
  ImageRange(FlowImage&&, std::size_t, std::size_t) = delete;

  [[nodiscard]] const FlowImage& image() const noexcept { return *img_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t num_data() const noexcept {
    return img_->num_data();
  }
  [[nodiscard]] const DataRegistry& registry() const noexcept {
    return img_->registry();
  }
  /// Global id of the first task (the start id, also for an empty slice).
  [[nodiscard]] TaskId first_id() const noexcept { return first_; }

  /// Spans of this slice; their begin/end index into accesses_base().
  [[nodiscard]] const FlowImage::Span* spans() const noexcept {
    return img_->spans() + first_;
  }
  /// Image-absolute access array base (spans store absolute indices).
  [[nodiscard]] const Access* accesses_base() const noexcept {
    return img_->accesses();
  }

  [[nodiscard]] TaskId task_id(std::size_t i) const noexcept {
    return img_->task_id(first_ + i);
  }
  [[nodiscard]] const Access* acc_begin(std::size_t i) const noexcept {
    return img_->acc_begin(first_ + i);
  }
  [[nodiscard]] const Access* acc_end(std::size_t i) const noexcept {
    return img_->acc_end(first_ + i);
  }
  [[nodiscard]] std::size_t num_accesses(std::size_t i) const noexcept {
    return img_->num_accesses(first_ + i);
  }
  [[nodiscard]] std::uint64_t cost(std::size_t i) const noexcept {
    return img_->cost(first_ + i);
  }
  [[nodiscard]] std::int32_t priority(std::size_t i) const noexcept {
    return img_->priority(first_ + i);
  }
  [[nodiscard]] const Task& task(std::size_t i) const noexcept {
    return img_->task(first_ + i);
  }

 private:
  const FlowImage* img_;
  std::size_t first_;
  std::size_t count_;
};

}  // namespace rio::stf
