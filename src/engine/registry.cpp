#include "engine/registry.hpp"

#include <utility>

#include "support/assert.hpp"

namespace rio::engine {

namespace detail {
// Defined in backends.cpp. Referencing it from instance() forces the linker
// to keep the backends translation unit even in a static library.
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

void Registry::add(std::unique_ptr<Backend> backend) {
  RIO_ASSERT_MSG(backend && !backend->name().empty(),
                 "backend must carry a name");
  RIO_ASSERT_MSG(find(backend->name()) == nullptr,
                 "duplicate backend registration");
  backends_.push_back(std::move(backend));
}

void Registry::add_alias(std::string alias, std::string_view target) {
  RIO_ASSERT_MSG(!alias.empty(), "alias must be non-empty");
  RIO_ASSERT_MSG(find(alias) == nullptr, "alias collides with existing name");
  const Backend* t = find(target);
  RIO_ASSERT_MSG(t != nullptr, "alias target is not registered");
  aliases_.emplace_back(std::move(alias), std::string(t->name()));
}

const Backend* Registry::find(std::string_view name) const noexcept {
  // The ONLY engine-name string matching in the codebase lives here.
  for (const auto& b : backends_)
    if (b->name() == name) return b.get();
  for (const auto& [alias, target] : aliases_) {
    if (alias != name) continue;
    for (const auto& b : backends_)
      if (b->name() == target) return b.get();
  }
  return nullptr;
}

std::vector<std::string> Registry::aliases_for(std::string_view name) const {
  std::vector<std::string> out;
  for (const auto& [alias, target] : aliases_)
    if (target == name) out.push_back(alias);
  return out;
}

const Backend* Registry::find_or_error(std::string_view name,
                                       std::string& error) const {
  if (const Backend* b = find(name)) return b;
  error = "unknown engine '" + std::string(name) +
          "' (choices: " + names_csv() + ")";
  return nullptr;
}

std::vector<const Backend*> Registry::all() const {
  std::vector<const Backend*> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b.get());
  return out;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.emplace_back(b->name());
  return out;
}

std::string Registry::names_csv(std::string_view sep) const {
  std::string out;
  for (const auto& b : backends_) {
    if (!out.empty()) out += sep;
    out += b->name();
  }
  return out;
}

std::vector<std::pair<std::string_view, bool>> capability_list(
    const Capabilities& c) {
  return {{"executes_bodies", c.executes_bodies},
          {"virtual_time", c.virtual_time},
          {"supports_faults", c.supports_faults},
          {"supports_watchdog", c.supports_watchdog},
          {"supports_sync", c.supports_sync},
          {"supports_obs", c.supports_obs},
          {"supports_guard", c.supports_guard},
          {"supports_streaming", c.supports_streaming},
          {"needs_mapping", c.needs_mapping},
          {"partial_mapping", c.partial_mapping},
          {"uses_wait_policy", c.uses_wait_policy},
          {"uses_scheduler", c.uses_scheduler},
          {"in_order", c.in_order},
          {"has_master", c.has_master},
          {"supports_recovery", c.supports_recovery}};
}

std::vector<std::string> unsupported_knobs(const Capabilities& caps,
                                           const Launch& launch) {
  std::vector<std::string> bad;
  const Launch defaults;
  if (launch.workers == 0) bad.emplace_back("workers=0 (need at least one)");
  if (caps.needs_mapping && !launch.mapping.valid())
    bad.emplace_back("missing mapping (backend needs_mapping)");
  if (launch.partial && !caps.partial_mapping)
    bad.emplace_back("partial mapping (backend lacks partial_mapping)");
  if (launch.collect_sync && !caps.supports_sync)
    bad.emplace_back("collect_sync (backend lacks supports_sync)");
  if (launch.enable_guard && !caps.supports_guard)
    bad.emplace_back("enable_guard (backend lacks supports_guard)");
  if (launch.obs != nullptr && !caps.supports_obs)
    bad.emplace_back("obs hub (backend lacks supports_obs)");
  if ((launch.fault != nullptr || launch.retry.enabled()) &&
      !caps.supports_faults)
    bad.emplace_back("faults/retry (backend lacks supports_faults)");
  if (launch.watchdog_ns > 0 && !caps.supports_watchdog)
    bad.emplace_back("watchdog (backend lacks supports_watchdog)");
  if (launch.scheduler != defaults.scheduler && !caps.uses_scheduler)
    bad.emplace_back("scheduler (backend lacks uses_scheduler)");
  if (launch.work_stealing && !caps.uses_scheduler)
    bad.emplace_back("work_stealing (backend lacks uses_scheduler)");
  if ((launch.resume != nullptr || launch.checkpoint != nullptr) &&
      !caps.supports_recovery)
    bad.emplace_back("resume/checkpoint (backend lacks supports_recovery)");
  if (launch.fault != nullptr && launch.fault->plan().crash_armed() &&
      !caps.supports_recovery && !caps.virtual_time)
    bad.emplace_back("crash faults (backend lacks supports_recovery)");
  return bad;
}

void validate(const Backend& backend, const Launch& launch) {
  const std::vector<std::string> bad =
      unsupported_knobs(backend.caps(), launch);
  if (bad.empty()) return;
  std::string detail;
  for (const std::string& b : bad) {
    if (!detail.empty()) detail += "; ";
    detail += b;
  }
  throw UnsupportedLaunch(backend.name(), detail);
}

}  // namespace rio::engine
