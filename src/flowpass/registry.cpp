#include <utility>

#include "flowpass/pass.hpp"
#include "stf/flow_rewrite.hpp"
#include "support/assert.hpp"

namespace rio::flowpass {

namespace detail {
// Defined in passes.cpp. Referencing it from instance() forces the linker
// to keep the passes translation unit even in a static library.
void register_builtins(Registry& reg);
}  // namespace detail

Registry& Registry::instance() {
  static Registry* reg = [] {
    auto* r = new Registry();  // leaked on purpose: lives for the process
    detail::register_builtins(*r);
    return r;
  }();
  return *reg;
}

void Registry::add(std::unique_ptr<Pass> pass) {
  RIO_ASSERT_MSG(pass && !pass->name().empty(), "pass must carry a name");
  RIO_ASSERT_MSG(find(pass->name()) == nullptr, "duplicate pass registration");
  passes_.push_back(std::move(pass));
}

const Pass* Registry::find(std::string_view name) const noexcept {
  // The ONLY pass-name string matching in the codebase lives here.
  for (const auto& p : passes_)
    if (p->name() == name) return p.get();
  return nullptr;
}

const Pass* Registry::find_or_error(std::string_view name,
                                    std::string& error) const {
  if (const Pass* p = find(name)) return p;
  error = "unknown pass '" + std::string(name) +
          "' (choices: " + names_csv() + ")";
  return nullptr;
}

std::vector<const Pass*> Registry::all() const {
  std::vector<const Pass*> out;
  out.reserve(passes_.size());
  for (const auto& p : passes_) out.push_back(p.get());
  return out;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(passes_.size());
  for (const auto& p : passes_) out.emplace_back(p->name());
  return out;
}

std::string Registry::names_csv(std::string_view sep) const {
  std::string out;
  for (const auto& p : passes_) {
    if (!out.empty()) out += sep;
    out += p->name();
  }
  return out;
}

PipelineResult run_pipeline(const stf::FlowImage& src,
                            const std::vector<std::string>& pass_names,
                            const PassOptions& opts) {
  PipelineResult out;
  // Resolve every name up front so a typo at position k cannot leave a
  // half-rewritten pipeline behind.
  std::vector<const Pass*> passes;
  passes.reserve(pass_names.size());
  for (const std::string& name : pass_names) {
    const Pass* p = Registry::instance().find_or_error(name, out.error);
    if (p == nullptr) return out;
    passes.push_back(p);
  }

  stf::FlowImage held;  // current image once the first pass has run
  const stf::FlowImage* cur = &src;
  for (const Pass* p : passes) {
    PassReport rep;
    rep.pass = std::string(p->name());
    stf::FlowImage next = p->run(*cur, opts, rep);
    // The machine-checkable half of the preservation contract: a rewrite
    // never changes which data it talks about or the flow's total work.
    // (The byte-oracle tests check the other half — that executing it
    // produces identical data.)
    RIO_ASSERT_MSG(&next.registry() == &cur->registry(),
                   "pass must preserve the data registry");
    RIO_ASSERT_MSG(next.num_data() == cur->num_data(),
                   "pass must preserve the data-object count");
    RIO_ASSERT_MSG(next.total_cost() == cur->total_cost(),
                   "pass must preserve total flow cost");
    RIO_ASSERT_MSG(next.serial() == cur->serial(),
                   "pass must preserve the image lineage serial");
    if (rep.mapping.valid()) out.mapping = rep.mapping;
    if (!rep.phases.empty()) out.phases = rep.phases;
    out.passes.push_back(std::move(rep));
    held = std::move(next);
    cur = &held;
  }

  if (passes.empty()) {
    // Identity pipeline: clone the source so callers always own the result.
    held = stf::FlowRewriter(src).compile();
  }
  out.image = std::move(held);
  return out;
}

}  // namespace rio::flowpass
