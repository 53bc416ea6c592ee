// FlowRewriter: the mutable stage between two immutable FlowImages.
//
// A FlowImage is a sealed compilation artifact; the optimization passes in
// src/flowpass need to edit one. The rewriter thaws an image back into a
// std::vector<Task>, lets a pass splice / reorder / replace tasks freely,
// and then compile()s the result into a fresh image that OWNS its task
// vector (FlowImage::compile_owned), inherits the source serial and borrows
// the source registry.
//
// The crucial invariant is that a task BODY must never observe that it was
// moved. Bodies read their descriptor through TaskContext — fold-style
// verification bodies mix ctx.task().id into the bytes they write, and the
// debug access checks compare against ctx.task().accesses. So when
// compile() renumbers a task to its new position, it wraps the body in an
// id-preserving trampoline: the outer Task carries the new id (what engines
// and protocols see), while the body runs against a pristine copy of the
// task as the pass left it (what the program semantics see). Passes that
// synthesize composite tasks (fusion) use the same trick per member.
#pragma once

#include <cstdint>
#include <vector>

#include "stf/flow_image.hpp"
#include "stf/task.hpp"

namespace rio::stf {

class FlowRewriter {
 public:
  /// Thaws `src` into an editable task vector (descriptor copies; bodies are
  /// shared via std::function). The source image's registry must outlive
  /// every image compiled from this rewriter.
  explicit FlowRewriter(const FlowImage& src);

  [[nodiscard]] std::vector<Task>& tasks() noexcept { return tasks_; }
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] const DataRegistry& registry() const noexcept {
    return *registry_;
  }

  /// Seals the edited vector into a new image: renumbers tasks to their
  /// positions 0..n-1, trampolining any body whose visible id changed, and
  /// compiles an owned image that inherits the source serial
  /// (fingerprint() tells the rewrites apart).
  [[nodiscard]] FlowImage compile() &&;

  /// Renumbers one task to `new_id`, preserving body semantics: if the id
  /// actually changes and the task has a body, the body is wrapped so it
  /// still executes against the original descriptor (original id, accesses).
  [[nodiscard]] static Task relocate(Task t, TaskId new_id);

 private:
  std::vector<Task> tasks_;
  const DataRegistry* registry_;
  std::uint64_t serial_ = 0;
};

}  // namespace rio::stf
