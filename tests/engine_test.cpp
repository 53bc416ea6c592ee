// Tests for the engine:: backend seam (src/engine, docs/engines.md).
//
// The load-bearing properties:
//   * the registry holds exactly the built-in backends, with unique names,
//     and produces the structured unknown-name error every consumer prints;
//   * the ENGINE MATRIX: every executes_bodies backend leaves a fold-chain
//     workload's data byte-identical to the sequential oracle, and every
//     virtual_time backend produces a structurally sane virtual report —
//     iterated over Registry::all(), so a new backend joins the matrix by
//     registering and nothing else;
//   * a Launch asking for more than a backend's capabilities is rejected
//     with ONE UnsupportedLaunch naming every offending knob;
//   * per-backend Outcome extras (trace/sync, hybrid phases, pruned plan
//     compiles) are populated when the capability is exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>

#include "engine/registry.hpp"
#include "obs/obs.hpp"
#include "rio/rio.hpp"
#include "stf/stf.hpp"

namespace {

using namespace rio;

/// Fold chain: every task reads one object and folds (task id, read value)
/// into another with a non-commutative update, so ANY ordering or rollback
/// mistake changes the final bytes.
stf::TaskFlow make_fold_chain(std::uint32_t num_tasks, std::uint32_t num_data) {
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> data;
  for (std::uint32_t d = 0; d < num_data; ++d)
    data.push_back(flow.create_data<std::uint64_t>("d" + std::to_string(d)));
  for (std::uint32_t t = 0; t < num_tasks; ++t) {
    const auto dst = data[t % num_data];
    const auto src = data[(t + 1) % num_data];  // always != dst (num_data > 1)
    flow.add("fold" + std::to_string(t),
             [src, dst, t](stf::TaskContext& ctx) {
               const std::uint64_t read = ctx.scalar(src);
               std::uint64_t& w = ctx.scalar(dst);
               w = w * 6364136223846793005ULL +
                   (read ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
             },
             {stf::read(src), stf::readwrite(dst)}, /*cost=*/50 + t % 97);
  }
  return flow;
}

void expect_same_data(const stf::TaskFlow& got, const stf::TaskFlow& want,
                      const std::string& label) {
  ASSERT_EQ(got.num_data(), want.num_data());
  for (stf::DataId d = 0; d < got.num_data(); ++d)
    EXPECT_EQ(std::memcmp(got.registry().raw(d), want.registry().raw(d),
                          got.registry().bytes(d)),
              0)
        << label << " diverged from the oracle on object " << d;
}

// ------------------------------------------------------------- registry ----

TEST(EngineRegistry, HoldsTheBuiltinsWithUniqueNames) {
  auto& reg = engine::Registry::instance();
  const auto names = reg.names();
  for (const char* expected : {"seq", "rio", "rio-pruned", "coor", "hybrid",
                               "sim-rio", "sim-coor", "sim-hybrid"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from the registry";
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size())
      << "duplicate backend names";
  for (const engine::Backend* b : reg.all()) {
    EXPECT_FALSE(std::string(b->name()).empty());
    EXPECT_FALSE(std::string(b->description()).empty());
    // Exactly one execution substrate per backend: real bodies or ticks.
    EXPECT_NE(b->caps().executes_bodies, b->caps().virtual_time)
        << b->name();
  }
}

TEST(EngineRegistry, FindAndStructuredUnknownNameError) {
  auto& reg = engine::Registry::instance();
  ASSERT_NE(reg.find("rio"), nullptr);
  EXPECT_EQ(reg.find("rio")->name(), "rio");
  EXPECT_EQ(reg.find("warp-drive"), nullptr);

  std::string error;
  EXPECT_EQ(reg.find_or_error("warp-drive", error), nullptr);
  EXPECT_NE(error.find("unknown engine 'warp-drive'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("choices:"), std::string::npos) << error;
  for (const std::string& name : reg.names())
    EXPECT_NE(error.find(name), std::string::npos)
        << error << " should list " << name;
}

TEST(EngineRegistry, CapabilityListIsStableAndComplete) {
  const engine::Capabilities caps{.executes_bodies = true, .in_order = true};
  const auto list = engine::capability_list(caps);
  EXPECT_EQ(list.size(), 17u);  // one entry per Capabilities flag
  bool saw_exec = false, saw_virtual = false, saw_recovery = false;
  for (const auto& [name, value] : list) {
    if (name == "executes_bodies") saw_exec = value;
    if (name == "virtual_time") saw_virtual = !value;
    if (name == "supports_recovery") saw_recovery = !value;
  }
  EXPECT_TRUE(saw_exec);
  EXPECT_TRUE(saw_virtual);
  EXPECT_TRUE(saw_recovery);
}

// ---------------------------------------------------------- engine matrix --

TEST(EngineMatrix, EveryBackendRunsTheFoldChain) {
  const std::uint32_t kTasks = 180, kData = 9, kWorkers = 3;
  auto oracle = make_fold_chain(kTasks, kData);
  stf::SequentialExecutor{}.run(oracle);

  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    const std::string label(backend->name());
    SCOPED_TRACE(label);

    auto flow = make_fold_chain(kTasks, kData);
    engine::Launch launch;
    launch.workers = kWorkers;
    if (caps.needs_mapping) launch.mapping = rt::mapping::round_robin(kWorkers);
    const engine::Outcome outcome =
        backend->run(stf::FlowImage::compile(flow), launch);

    EXPECT_EQ(outcome.virtual_time, caps.virtual_time);
    if (caps.executes_bodies) {
      // The whole point of the matrix: byte-for-byte oracle agreement.
      expect_same_data(flow, oracle, label);
    } else {
      // Simulators never touch the data; they must report a sane virtual
      // schedule instead.
      EXPECT_GT(outcome.makespan, 0u);
      expect_same_data(flow, make_fold_chain(kTasks, kData), label);
    }
    ASSERT_FALSE(outcome.stats.workers.empty());
    EXPECT_EQ(outcome.stats.workers.size(),
              caps.has_master ? kWorkers + 1
              : label == "seq" ? 1u
                               : kWorkers);
    std::uint64_t executed = 0;
    for (const auto& w : outcome.stats.workers) executed += w.tasks_executed;
    EXPECT_EQ(executed, kTasks);
  }
}

// ------------------------------------------------------------ validation ---

TEST(EngineValidate, RejectsEveryUnsupportedKnobAtOnce) {
  auto& reg = engine::Registry::instance();
  const engine::Backend* seq = reg.find("seq");
  ASSERT_NE(seq, nullptr);

  obs::Hub hub;
  support::FaultPlan plan;
  plan.throw_rate = 0.5;
  support::FaultInjector injector(plan);
  engine::Launch launch;
  launch.collect_trace = true;
  launch.enable_guard = true;
  launch.fault = &injector;
  launch.watchdog_ns = 1000;
  launch.obs = &hub;

  const auto knobs = engine::unsupported_knobs(seq->caps(), launch);
  EXPECT_GE(knobs.size(), 5u);  // trace, guard, faults, watchdog, obs
  try {
    (void)seq->run(stf::FlowImage::compile(make_fold_chain(4, 2)), launch);
    FAIL() << "expected UnsupportedLaunch";
  } catch (const engine::UnsupportedLaunch& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("engine 'seq' cannot run this launch"),
              std::string::npos)
        << what;
    // ONE error names every offending knob, not just the first.
    for (const char* frag :
         {"collect_trace", "enable_guard", "fault", "watchdog", "obs"})
      EXPECT_NE(what.find(frag), std::string::npos) << what << "\n" << frag;
  }
}

TEST(EngineValidate, RingQueueRejectedWithoutUsesQueue) {
  // The queue knob is coor-only today; every backend that does not declare
  // uses_queue must reject a launch with the NON-default queue kind (kLocked
  // while the ring is the default) with the structured error, and
  // every backend that does declare it must run that kind to the oracle.
  const coor::QueueKind other = engine::Launch{}.queue == coor::QueueKind::kRing
                                    ? coor::QueueKind::kLocked
                                    : coor::QueueKind::kRing;
  const std::string label = std::string("+") + coor::to_string(other);
  auto oracle = make_fold_chain(60, 6);
  stf::SequentialExecutor{}.run(oracle);
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    SCOPED_TRACE(std::string(backend->name()));
    engine::Launch launch;
    launch.workers = 2;
    launch.queue = other;
    if (backend->caps().needs_mapping)
      launch.mapping = rt::mapping::round_robin(2);
    auto flow = make_fold_chain(60, 6);
    if (!backend->caps().uses_queue) {
      try {
        (void)backend->run(stf::FlowImage::compile(flow), launch);
        FAIL() << "expected UnsupportedLaunch for queue=" << label;
      } catch (const engine::UnsupportedLaunch& e) {
        EXPECT_NE(std::string(e.what()).find("queue"), std::string::npos)
            << e.what();
      }
    } else {
      (void)backend->run(stf::FlowImage::compile(flow), launch);
      if (backend->caps().executes_bodies)
        expect_same_data(flow, oracle, std::string(backend->name()) + label);
    }
  }
}

TEST(EngineValidate, DefaultLaunchRunsOnEveryBackend) {
  // The capability checks compare each knob with its Launch default, so a
  // default Launch (plus the mapping needs_mapping backends require) runs
  // on every backend — also on those that never read a knob whose default
  // changed, like hybrid and the ring queue.
  auto oracle = make_fold_chain(60, 6);
  stf::SequentialExecutor{}.run(oracle);
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    SCOPED_TRACE(std::string(backend->name()));
    engine::Launch launch;
    if (backend->caps().needs_mapping)
      launch.mapping = rt::mapping::round_robin(launch.workers);
    EXPECT_TRUE(engine::unsupported_knobs(backend->caps(), launch).empty());
    auto flow = make_fold_chain(60, 6);
    (void)backend->run(stf::FlowImage::compile(flow), launch);
    if (backend->caps().executes_bodies)
      expect_same_data(flow, oracle,
                       std::string(backend->name()) + "+defaults");
  }
}

TEST(EngineValidate, SchedulerRejectedWithoutUsesScheduler) {
  // A non-default scheduler on a backend without a scheduler must be
  // refused, not silently ignored; the uses_scheduler backends must still
  // run it to the oracle.
  auto oracle = make_fold_chain(60, 6);
  stf::SequentialExecutor{}.run(oracle);
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    SCOPED_TRACE(std::string(backend->name()));
    engine::Launch launch;
    launch.workers = 2;
    launch.scheduler = coor::SchedulerKind::kPriority;
    if (backend->caps().needs_mapping)
      launch.mapping = rt::mapping::round_robin(2);
    auto flow = make_fold_chain(60, 6);
    if (!backend->caps().uses_scheduler) {
      try {
        (void)backend->run(stf::FlowImage::compile(flow), launch);
        FAIL() << "expected UnsupportedLaunch for scheduler=priority";
      } catch (const engine::UnsupportedLaunch& e) {
        EXPECT_NE(std::string(e.what()).find("scheduler"), std::string::npos)
            << e.what();
      }
    } else {
      (void)backend->run(stf::FlowImage::compile(flow), launch);
      if (backend->caps().executes_bodies)
        expect_same_data(flow, oracle,
                         std::string(backend->name()) + "+priority");
    }
  }
}

TEST(EngineValidate, NeedsMappingBackendsRejectEmptyMapping) {
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    if (!backend->caps().needs_mapping) continue;
    SCOPED_TRACE(std::string(backend->name()));
    engine::Launch launch;  // mapping left invalid
    EXPECT_THROW(
        (void)backend->run(stf::FlowImage::compile(make_fold_chain(4, 2)),
                           launch),
        engine::UnsupportedLaunch);
  }
}

TEST(EngineValidate, ZeroWorkersIsRejectedEverywhere) {
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    SCOPED_TRACE(std::string(backend->name()));
    engine::Launch launch;
    launch.workers = 0;
    if (backend->caps().needs_mapping)
      launch.mapping = rt::mapping::round_robin(1);
    EXPECT_THROW(
        (void)backend->run(stf::FlowImage::compile(make_fold_chain(4, 2)),
                           launch),
        engine::UnsupportedLaunch);
  }
}

// --------------------------------------------------------------- extras ----

TEST(EngineOutcome, RioCarriesTraceAndSyncWhenRequested) {
  auto flow = make_fold_chain(60, 6);
  const engine::Backend* rio_b = engine::Registry::instance().find("rio");
  ASSERT_NE(rio_b, nullptr);
  engine::Launch launch;
  launch.workers = 2;
  launch.mapping = rt::mapping::round_robin(2);
  launch.collect_trace = true;
  launch.collect_sync = true;
  const auto outcome = rio_b->run(stf::FlowImage::compile(flow), launch);
  EXPECT_EQ(outcome.trace.events().size(), 60u);
  EXPECT_FALSE(outcome.sync.events().empty());
  stf::DependencyGraph graph(flow);
  const auto v = outcome.trace.validate(flow, graph, /*worker_in_order=*/true);
  EXPECT_TRUE(v.ok()) << v.reason;
}

TEST(EngineOutcome, HybridDefaultPartialAlternatesPhases) {
  auto flow = make_fold_chain(64, 6);  // 4 segments of 16 under the default
  const engine::Backend* hy = engine::Registry::instance().find("hybrid");
  ASSERT_NE(hy, nullptr);
  engine::Launch launch;
  launch.workers = 2;
  const auto outcome = hy->run(stf::FlowImage::compile(flow), launch);
  EXPECT_EQ(outcome.phases, 4u);
  EXPECT_EQ(outcome.completed_phases, 4u);
}

TEST(EngineOutcome, PrunedReportsPlanCompiles) {
  // plan_compiles is this call's cache misses: the backend keeps its plan
  // resident, so a repeat of the same (image, launch) compiles nothing,
  // and a freshly compiled image (new serial) misses again.
  auto flow = make_fold_chain(40, 4);
  const engine::Backend* pr = engine::Registry::instance().find("rio-pruned");
  ASSERT_NE(pr, nullptr);
  engine::Launch launch;
  launch.workers = 2;
  launch.mapping = rt::mapping::round_robin(2);
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  EXPECT_EQ(pr->run(image, launch).plan_compiles, 1u);
  EXPECT_EQ(pr->run(image, launch).plan_compiles, 0u);
  EXPECT_EQ(pr->run(stf::FlowImage::compile(flow), launch).plan_compiles, 1u);
}

}  // namespace
