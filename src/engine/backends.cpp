// Built-in backends. This file is the "exactly one place" a new backend is
// added: implement engine::Backend (usually a thin facade over an existing
// runtime) and append one line to register_builtins() at the bottom. The
// real engines are facades over persistent executors (executor.hpp) that
// keep their threads, arenas and rio's plan resident between runs: rio and
// rio-pruned share one, coor and hybrid own one each.

#include <memory>
#include <optional>
#include <utility>

#include "engine/executor.hpp"
#include "engine/registry.hpp"
#include "coor/runtime.hpp"
#include "hybrid/runtime.hpp"
#include "rio/runtime.hpp"
#include "sim/simulate.hpp"
#include "stf/sequential.hpp"

namespace rio::engine {
namespace {

Outcome base_outcome(support::RunStats stats, const Capabilities& caps) {
  Outcome out;
  out.stats = std::move(stats);
  out.virtual_time = caps.virtual_time;
  out.makespan = out.stats.wall_ns;
  return out;
}

/// Default partial mapping for hybrid backends when the Launch carries
/// none: alternate 16-task static (owner = t mod p) / dynamic segments —
/// the shape profile and chaos always exercised.
rt::PartialMapping default_partial(std::uint32_t workers) {
  return [workers](stf::TaskId t) -> std::optional<stf::WorkerId> {
    if ((t / 16) % 2 == 0) return static_cast<stf::WorkerId>(t % workers);
    return std::nullopt;
  };
}

class SeqBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "seq";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "sequential reference executor (the correctness oracle)";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.executes_bodies = true, .in_order = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    return base_outcome(stf::SequentialExecutor{}.run(image), caps());
  }
};

using RioExecutor = Executor<rt::Runtime>;

/// rio and rio-pruned differ only in how a worker walks the image: its full
/// unroll, or its pruned plan slice (Section 3.5). plan_compiles counts the
/// plan-cache misses paid by THIS call: 0 on a warm hit, 1 on a miss.
Outcome run_rio(RioExecutor& executor, const stf::FlowImage& image,
                const Launch& launch, bool pruned) {
  return executor.run(
      launch, launch.workers, launch.pin_workers, [&](rt::Runtime& eng) {
        const std::uint64_t compiles_before = eng.plan_compiles();
        Outcome out;
        out.stats = pruned ? eng.run_pruned(image, launch.mapping)
                           : eng.run(image, launch.mapping);
        out.makespan = out.stats.wall_ns;
        out.trace = eng.trace();
        out.sync = eng.sync_trace();
        out.plan_compiles = eng.plan_compiles() - compiles_before;
        return out;
      });
}

class RioBackend final : public Backend {
 public:
  explicit RioBackend(std::shared_ptr<RioExecutor> executor)
      : executor_(std::move(executor)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rio";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "decentralized in-order runtime (the paper's model, Section 3)";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.executes_bodies = true,
                                .supports_faults = true,
                                .supports_watchdog = true,
                                .supports_trace = true,
                                .supports_sync = true,
                                .supports_obs = true,
                                .supports_guard = true,
                                .supports_streaming = true,
                                .needs_mapping = true,
                                .uses_wait_policy = true,
                                .in_order = true,
                                .supports_recovery = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    return run_rio(*executor_, image, launch, /*pruned=*/false);
  }

 private:
  std::shared_ptr<RioExecutor> executor_;
};

class PrunedBackend final : public Backend {
 public:
  explicit PrunedBackend(std::shared_ptr<RioExecutor> executor)
      : executor_(std::move(executor)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rio-pruned";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "decentralized in-order runtime with task pruning (Section 3.5)";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.executes_bodies = true,
                                .supports_faults = true,
                                .supports_watchdog = true,
                                .supports_trace = true,
                                .supports_sync = true,
                                .supports_obs = true,
                                .needs_mapping = true,
                                .uses_wait_policy = true,
                                .in_order = true,
                                .supports_recovery = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    return run_rio(*executor_, image, launch, /*pruned=*/true);
  }

 private:
  std::shared_ptr<RioExecutor> executor_;
};

class CoorBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "coor";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "centralized out-of-order master/worker runtime (Figure 1)";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.executes_bodies = true,
                                .supports_faults = true,
                                .supports_watchdog = true,
                                .supports_trace = true,
                                .supports_sync = true,
                                .supports_obs = true,
                                .supports_guard = true,
                                .uses_wait_policy = true,
                                .uses_scheduler = true,
                                .uses_queue = true,
                                .has_master = true,
                                .supports_recovery = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    // The pool holds the workers plus the master.
    return executor_.run(launch, launch.workers + 1, launch.pin_workers,
                         [&](coor::Runtime& eng) {
                           Outcome out = base_outcome(eng.run(image), caps());
                           out.trace = eng.trace();
                           out.sync = eng.sync_trace();
                           return out;
                         });
  }

 private:
  mutable Executor<coor::Runtime> executor_;
};

class HybridBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "hybrid";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "bulk-synchronous phases: static slices on rio, dynamic on coor";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.executes_bodies = true,
                                .supports_faults = true,
                                .supports_watchdog = true,
                                .supports_obs = true,
                                .supports_guard = true,
                                .partial_mapping = true,
                                .uses_wait_policy = true,
                                .uses_scheduler = true,
                                .has_master = true,
                                .supports_recovery = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    const rt::PartialMapping& pm =
        launch.partial ? launch.partial : default_partial(launch.workers);
    // Workers plus the dynamic phases' master; hybrid runs its phases
    // unpinned (hybrid/runtime.hpp), so its pool is never pinned.
    return executor_.run(launch, launch.workers + 1, /*pinned=*/false,
                         [&](hybrid::Runtime& eng) {
                           Outcome out =
                               base_outcome(eng.run(image, pm), caps());
                           out.phases = eng.last_phase_count();
                           out.completed_phases = eng.completed_phases();
                           return out;
                         });
  }

 private:
  mutable Executor<hybrid::Runtime> executor_;
};

sim::DecentralizedParams make_dparams(const Launch& l) {
  sim::DecentralizedParams p;
  p.workers = l.workers;
  if (l.fault != nullptr) p.faults = l.fault->plan();
  p.retry = l.retry;
  p.obs = l.obs;
  return p;
}

sim::CentralizedParams make_cparams(const Launch& l) {
  sim::CentralizedParams p;
  p.workers = l.workers;
  if (l.fault != nullptr) p.faults = l.fault->plan();
  p.retry = l.retry;
  p.obs = l.obs;
  return p;
}

Outcome sim_outcome(sim::Report rep, const Capabilities& caps) {
  Outcome out = base_outcome(std::move(rep.stats), caps);
  out.makespan = rep.makespan;
  out.injected_throws = rep.injected_throws;
  out.injected_stalls = rep.injected_stalls;
  out.retried_tasks = rep.retried_tasks;
  out.failed_tasks = rep.failed_tasks;
  out.evictions = rep.evictions;
  out.tasks_replayed = rep.tasks_replayed;
  return out;
}

class SimRioBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sim-rio";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "discrete-event simulation of the decentralized in-order model";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.virtual_time = true,
                                .supports_faults = true,
                                .supports_obs = true,
                                .needs_mapping = true,
                                .in_order = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    return sim_outcome(
        sim::simulate_decentralized(image, launch.mapping, make_dparams(launch)),
        caps());
  }
};

class SimCoorBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sim-coor";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "discrete-event simulation of the centralized out-of-order model";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.virtual_time = true,
                                .supports_faults = true,
                                .supports_obs = true,
                                .has_master = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    return sim_outcome(sim::simulate_centralized(image, make_cparams(launch)),
                       caps());
  }
};

class SimHybridBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sim-hybrid";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "discrete-event simulation of the hybrid phase model";
  }
  [[nodiscard]] const Capabilities& caps() const noexcept override {
    static const Capabilities c{.virtual_time = true,
                                .supports_faults = true,
                                .supports_obs = true,
                                .partial_mapping = true,
                                .has_master = true};
    return c;
  }
  [[nodiscard]] Outcome run(const stf::FlowImage& image,
                            const Launch& launch) const override {
    validate(*this, launch);
    const rt::PartialMapping& pm =
        launch.partial ? launch.partial : default_partial(launch.workers);
    const std::vector<hybrid::Phase> phases =
        hybrid::partition(image.size(), pm, launch.workers);
    Outcome out = sim_outcome(
        sim::simulate_hybrid(image, phases, make_dparams(launch),
                             make_cparams(launch)),
        caps());
    out.phases = phases.size();
    out.completed_phases = phases.size();
    return out;
  }
};

}  // namespace

namespace detail {

void register_builtins(Registry& reg) {
  reg.add(std::make_unique<SeqBackend>());
  // rio and rio-pruned share one persistent executor (engine/executor.hpp).
  auto rio_executor = std::make_shared<RioExecutor>();
  reg.add(std::make_unique<RioBackend>(rio_executor));
  reg.add(std::make_unique<PrunedBackend>(std::move(rio_executor)));
  reg.add(std::make_unique<CoorBackend>());
  reg.add(std::make_unique<HybridBackend>());
  reg.add(std::make_unique<SimRioBackend>());
  reg.add(std::make_unique<SimCoorBackend>());
  reg.add(std::make_unique<SimHybridBackend>());
  reg.add_alias("pruned", "rio-pruned");
  reg.add_alias("sim", "sim-rio");
}

}  // namespace detail
}  // namespace rio::engine
