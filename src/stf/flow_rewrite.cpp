#include "stf/flow_rewrite.hpp"

#include <memory>
#include <utility>

namespace rio::stf {

FlowRewriter::FlowRewriter(const FlowImage& src)
    : registry_(&src.registry()), serial_(src.serial()) {
  tasks_.reserve(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) tasks_.push_back(src.task(i));
}

Task FlowRewriter::relocate(Task t, TaskId new_id) {
  if (t.id == new_id) return t;
  if (!t.fn) {
    t.id = new_id;
    return t;
  }
  // Pristine copy BEFORE mutating: the body keeps seeing the descriptor the
  // pass authored (original id, access list), no matter where the task
  // lands in the rewritten flow.
  auto original = std::make_shared<const Task>(t);
  t.fn = [original](TaskContext& ctx) {
    TaskContext sub(*original, ctx.registry(), ctx.worker());
    original->fn(sub);
  };
  t.id = new_id;
  return t;
}

FlowImage FlowRewriter::compile() && {
  auto out = std::make_shared<std::vector<Task>>(std::move(tasks_));
  for (std::size_t i = 0; i < out->size(); ++i) {
    (*out)[i] = relocate(std::move((*out)[i]), i);
  }
  return FlowImage::compile_owned(
      std::shared_ptr<const std::vector<Task>>(std::move(out)), *registry_,
      serial_);
}

}  // namespace rio::stf
