// Engine-equivalence fuzzing.
//
// The strongest correctness statement this repository can make is: for ANY
// task flow, every execution engine leaves the data objects bitwise
// identical to the sequential executor. This suite generates arbitrary
// random flows (random access counts, modes, shapes — a superset of the
// paper's workloads) and checks that property for every executes_bodies
// backend in the engine::Registry, under randomized mappings, phase splits,
// schedulers and worker counts. New backends join the sweep just by
// registering.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <tuple>

#include "coor/coor.hpp"
#include "engine/registry.hpp"
#include "engine/supervisor.hpp"
#include "hybrid/hybrid.hpp"
#include "recorded_trace.hpp"
#include "rio/rio.hpp"
#include "support/rng.hpp"
#include "stf/stf.hpp"

namespace {

using namespace rio;

struct FuzzSpec {
  std::uint64_t seed = 1;
  std::uint32_t num_tasks = 150;
  std::uint32_t num_data = 12;
  std::uint32_t max_accesses = 3;
  std::uint32_t workers = 3;
};

/// Builds a random flow whose bodies fold (task id, read values) into the
/// written objects — any ordering difference changes the final bytes.
stf::TaskFlow make_fuzz_flow(const FuzzSpec& spec) {
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> data;
  for (std::uint32_t d = 0; d < spec.num_data; ++d)
    data.push_back(flow.create_data<std::uint64_t>("d" + std::to_string(d)));

  support::Xoshiro256 rng(spec.seed);
  for (std::uint32_t t = 0; t < spec.num_tasks; ++t) {
    // Draw 0..max_accesses distinct objects with random modes.
    const auto count =
        static_cast<std::uint32_t>(rng.bounded(spec.max_accesses + 1));
    std::vector<std::uint32_t> picked;
    while (picked.size() < count) {
      const auto c = static_cast<std::uint32_t>(rng.bounded(spec.num_data));
      bool dup = false;
      for (auto p : picked) dup |= (p == c);
      if (!dup) picked.push_back(c);
    }
    stf::AccessList acc;
    std::vector<stf::DataId> reads, writes;
    for (auto p : picked) {
      switch (rng.bounded(3)) {
        case 0:
          acc.push_back(stf::read(data[p]));
          reads.push_back(data[p].id);
          break;
        case 1:
          acc.push_back(stf::write(data[p]));
          writes.push_back(data[p].id);
          break;
        default:
          acc.push_back(stf::readwrite(data[p]));
          reads.push_back(data[p].id);
          writes.push_back(data[p].id);
          break;
      }
    }
    flow.add("fz" + std::to_string(t),
             [reads, writes, t](stf::TaskContext& ctx) {
               std::uint64_t acc_val = 0x9e3779b97f4a7c15ULL * (t + 1);
               for (stf::DataId r : reads)
                 acc_val ^= *static_cast<const std::uint64_t*>(
                     ctx.registry().raw(r));
               for (stf::DataId w : writes) {
                 auto* p =
                     static_cast<std::uint64_t*>(ctx.registry().raw(w));
                 *p = *p * 6364136223846793005ULL + acc_val;
               }
             },
             std::move(acc), /*cost=*/rng.bounded(500));
  }
  return flow;
}

void expect_same_data(const stf::TaskFlow& got, const stf::TaskFlow& want,
                      const char* engine) {
  ASSERT_EQ(got.num_data(), want.num_data());
  for (stf::DataId d = 0; d < got.num_data(); ++d)
    EXPECT_EQ(std::memcmp(got.registry().raw(d), want.registry().raw(d),
                          got.registry().bytes(d)),
              0)
        << engine << " diverged on object " << d;
}

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, AllEnginesMatchSequential) {
  FuzzSpec spec;
  spec.seed = GetParam();
  support::Xoshiro256 meta(spec.seed * 31 + 7);
  spec.num_tasks = 80 + static_cast<std::uint32_t>(meta.bounded(150));
  spec.num_data = 4 + static_cast<std::uint32_t>(meta.bounded(20));
  spec.workers = 2 + static_cast<std::uint32_t>(meta.bounded(4));

  auto oracle = make_fuzz_flow(spec);
  const stf::FlowImage oracle_image = stf::FlowImage::compile(oracle);
  stf::SequentialExecutor{}.run(oracle_image);

  // Random (but valid) mapping table.
  std::vector<stf::WorkerId> owners(spec.num_tasks);
  for (auto& o : owners)
    o = static_cast<stf::WorkerId>(meta.bounded(spec.workers));
  const auto mapping = rt::mapping::table(owners);

  // Every backend that really runs task bodies must reproduce the oracle's
  // bytes, whatever optional capabilities we switch on for it.
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.executes_bodies) continue;
    const std::string label(backend->name());
    SCOPED_TRACE(label);

    auto flow = make_fuzz_flow(spec);
    // Every backend with a hub records a trace to validate.
    obs::Hub hub(stf::trace_recorder(flow.num_tasks()));
    engine::Launch launch;
    launch.workers = spec.workers;
    launch.enable_guard = caps.supports_guard;
    if (caps.supports_obs) launch.obs = &hub;
    if (caps.needs_mapping) launch.mapping = mapping;
    if (caps.partial_mapping) {
      const std::uint64_t segment = 1 + meta.bounded(40);
      launch.partial = [&owners, segment](
                           stf::TaskId t) -> std::optional<stf::WorkerId> {
        if ((t / segment) % 2 == 0) return owners[t];
        return std::nullopt;
      };
    }
    if (caps.uses_scheduler) {
      launch.scheduler = static_cast<coor::SchedulerKind>(meta.bounded(3));
      launch.work_stealing = meta.bounded(2) == 1;
    }
    if (caps.uses_queue) {
      // Both kinds explicitly, whatever the default: the wait-free MPMC
      // ready ring serves fifo, and the runtime falls back to the locked
      // deque for the other scheduler modes.
      launch.queue = meta.bounded(2) == 1 ? coor::QueueKind::kRing
                                          : coor::QueueKind::kLocked;
    }

    (void)backend->run(stf::FlowImage::compile(flow), launch);
    if (caps.supports_obs) {
      stf::DependencyGraph graph(flow);
      const auto v = testutil::recorded_trace(hub).validate(flow, graph,
                                                           caps.in_order);
      EXPECT_TRUE(v.ok()) << label << ": " << v.reason;
    }
    expect_same_data(flow, oracle, label.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// Wait-free ready ring fuzz: the byte-oracle property must hold with the
// MPMC ring requested explicitly, under fifo (which it serves) and lifo
// (which keeps the locked deque, since the ring pops FIFO only), and all
// wait policies including parked (block) consumers.
class RingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingFuzz, RingQueueMatchesSequential) {
  FuzzSpec spec;
  spec.seed = GetParam() * 211 + 17;
  support::Xoshiro256 meta(spec.seed * 31 + 7);
  spec.num_tasks = 80 + static_cast<std::uint32_t>(meta.bounded(120));
  spec.num_data = 4 + static_cast<std::uint32_t>(meta.bounded(16));
  spec.workers = 2 + static_cast<std::uint32_t>(meta.bounded(3));

  auto oracle = make_fuzz_flow(spec);
  const stf::FlowImage oracle_image = stf::FlowImage::compile(oracle);
  stf::SequentialExecutor{}.run(oracle_image);

  for (auto scheduler :
       {coor::SchedulerKind::kFifo, coor::SchedulerKind::kLifo}) {
    for (auto policy :
         {support::WaitPolicy::kSpinYield, support::WaitPolicy::kBlock}) {
      auto flow = make_fuzz_flow(spec);
      engine::Launch cfg;
      cfg.workers = spec.workers;
      cfg.scheduler = scheduler;
      cfg.queue = coor::QueueKind::kRing;
      cfg.wait_policy = policy;
      const stf::FlowImage image = stf::FlowImage::compile(flow);
      coor::Runtime(cfg).run(image);
      expect_same_data(flow, oracle,
                       (std::string("coor-ring/") + support::to_string(policy))
                           .c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingFuzz,
                         ::testing::Range<std::uint64_t>(1, 6));

// Policy x seed oracle matrix: every backend that runs bodies and honours
// Launch::wait_policy must reproduce the sequential bytes under each
// policy, launched through Backend::run. The fuzz flows draw 0 to
// max_accesses accesses per task, so about a quarter of the tasks are
// access-free: under kBlock those ring no doorbell, and matching bytes show
// that no waiter depended on such a ring.
class PolicyFuzz : public ::testing::TestWithParam<
                       std::tuple<support::WaitPolicy, std::uint64_t>> {};

TEST_P(PolicyFuzz, WaitingBackendsMatchSequential) {
  const auto [policy, seed] = GetParam();
  FuzzSpec spec;
  spec.seed = seed * 389 + 11;
  support::Xoshiro256 meta(spec.seed * 31 + 7);
  spec.num_tasks = 80 + static_cast<std::uint32_t>(meta.bounded(120));
  spec.num_data = 4 + static_cast<std::uint32_t>(meta.bounded(16));
  spec.workers = 2 + static_cast<std::uint32_t>(meta.bounded(3));

  auto oracle = make_fuzz_flow(spec);
  std::size_t access_free = 0;
  for (const stf::Task& t : oracle.tasks()) access_free += t.accesses.empty();
  ASSERT_GT(access_free, 0u);
  const stf::FlowImage oracle_image = stf::FlowImage::compile(oracle);
  stf::SequentialExecutor{}.run(oracle_image);

  std::vector<stf::WorkerId> owners(spec.num_tasks);
  for (auto& o : owners)
    o = static_cast<stf::WorkerId>(meta.bounded(spec.workers));
  const auto mapping = rt::mapping::table(owners);

  std::size_t ran = 0;
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.executes_bodies || !caps.uses_wait_policy) continue;
    const std::string label =
        std::string(backend->name()) + "/" + support::to_string(policy);
    SCOPED_TRACE(label);

    auto flow = make_fuzz_flow(spec);
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    engine::Launch launch;
    launch.workers = spec.workers;
    launch.wait_policy = policy;
    if (caps.needs_mapping) launch.mapping = mapping;
    (void)backend->run(image, launch);
    expect_same_data(flow, oracle, label.c_str());
    ++ran;
  }
  EXPECT_GE(ran, 4u);  // rio, rio-pruned, coor and hybrid at least
}

INSTANTIATE_TEST_SUITE_P(
    PolicySeeds, PolicyFuzz,
    ::testing::Combine(::testing::Values(support::WaitPolicy::kSpinYield,
                                         support::WaitPolicy::kBlock),
                       ::testing::Range<std::uint64_t>(1, 7)),
    [](const auto& i) {
      return std::string(std::get<0>(i.param) ==
                                 support::WaitPolicy::kSpinYield
                             ? "SpinYield"
                             : "Block") +
             "_" + std::to_string(std::get<1>(i.param));
    });

// Streaming replay fuzz: the same flow driven through run_program must
// agree with the materialized execution.
class StreamingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingFuzz, StreamingMatchesMaterialized) {
  FuzzSpec spec;
  spec.seed = GetParam() * 97 + 13;
  spec.num_tasks = 120;
  spec.workers = 3;

  auto oracle = make_fuzz_flow(spec);
  const stf::FlowImage oracle_image = stf::FlowImage::compile(oracle);
  stf::SequentialExecutor{}.run(oracle_image);

  // Streaming: rebuild the same task sequence through a SubmitSink against
  // a standalone registry with the same layout.
  stf::DataRegistry registry;
  for (std::uint32_t d = 0; d < spec.num_data; ++d)
    registry.create<std::uint64_t>("d" + std::to_string(d));

  auto reference = make_fuzz_flow(spec);  // only used as a task recipe
  stf::ProgramFn program = [&reference](stf::SubmitSink& sink) {
    for (const stf::Task& t : reference.tasks()) {
      stf::AccessList acc = t.accesses;
      sink.submit(t.fn, std::move(acc), t.cost, t.name);
    }
  };

  std::vector<stf::WorkerId> owners(spec.num_tasks);
  support::Xoshiro256 meta(spec.seed);
  for (auto& o : owners)
    o = static_cast<stf::WorkerId>(meta.bounded(spec.workers));

  rt::Runtime engine(
      engine::Launch{.workers = spec.workers, .enable_guard = true});
  engine.run_program(registry, program, rt::mapping::table(owners));

  for (stf::DataId d = 0; d < spec.num_data; ++d)
    EXPECT_EQ(std::memcmp(registry.raw(d), oracle.registry().raw(d),
                          registry.bytes(d)),
              0)
        << "object " << d;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// Fault fuzz: the equivalence property must survive injected transient
// faults when retry+rollback is enabled. Faults fire AFTER the body ran
// (stf/resilience.hpp), so every retried task really did mutate its data
// and the byte-identical outcome proves the rollback path end to end.
class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, RetriedRunsMatchSequential) {
  FuzzSpec spec;
  spec.seed = GetParam() * 131 + 5;
  support::Xoshiro256 meta(spec.seed * 31 + 7);
  spec.num_tasks = 80 + static_cast<std::uint32_t>(meta.bounded(120));
  spec.num_data = 4 + static_cast<std::uint32_t>(meta.bounded(16));
  spec.workers = 2 + static_cast<std::uint32_t>(meta.bounded(3));

  auto oracle = make_fuzz_flow(spec);
  const stf::FlowImage oracle_image = stf::FlowImage::compile(oracle);
  stf::SequentialExecutor{}.run(oracle_image);

  std::vector<stf::WorkerId> owners(spec.num_tasks);
  for (auto& o : owners)
    o = static_cast<stf::WorkerId>(meta.bounded(spec.workers));
  const auto mapping = rt::mapping::table(owners);

  support::FaultPlan plan;
  plan.seed = spec.seed;
  plan.throw_rate = 0.08;
  const support::RetryPolicy retry{.max_attempts = 6};

  // Fault decisions are pure functions of (seed, task, attempt), so every
  // supports_faults backend sees the same injected throws and must still
  // reproduce the oracle via retry + rollback.
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.executes_bodies || !caps.supports_faults) continue;
    const std::string label(backend->name());
    SCOPED_TRACE(label);

    auto flow = make_fuzz_flow(spec);
    support::FaultInjector injector(plan);
    engine::Launch launch;
    launch.workers = spec.workers;
    launch.retry = retry;
    launch.fault = &injector;
    if (caps.needs_mapping) launch.mapping = mapping;
    if (caps.partial_mapping) {
      const std::uint64_t segment = 1 + meta.bounded(40);
      launch.partial = [&owners, segment](
                           stf::TaskId t) -> std::optional<stf::WorkerId> {
        if ((t / segment) % 2 == 0) return owners[t];
        return std::nullopt;
      };
    }

    (void)backend->run(stf::FlowImage::compile(flow), launch);
    EXPECT_GT(injector.injected_throws(), 0u)
        << label << ": the plan never fired";
    expect_same_data(flow, oracle, (label + "+faults").c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// Crash fuzz: the equivalence property must survive PERMANENT worker loss.
// Two crash sites per run kill two workers mid-flow; the supervisor evicts
// each dead worker, remaps its tasks onto the survivors and resumes from
// the checkpointed frontier — and the final bytes must still match the
// sequential oracle exactly. Crash faults fire AFTER the body mutated its
// data, so a byte-identical outcome proves the dirty-span restore, the
// frontier replay and the remap end to end. The random partial segment
// length spreads the crash sites over static and dynamic hybrid phases
// across seeds, so mid-phase death inside BOTH engine kinds is covered.
class CrashFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashFuzz, SupervisedRecoveryMatchesSequential) {
  FuzzSpec spec;
  spec.seed = GetParam() * 173 + 29;
  support::Xoshiro256 meta(spec.seed * 31 + 7);
  spec.num_tasks = 80 + static_cast<std::uint32_t>(meta.bounded(120));
  spec.num_data = 4 + static_cast<std::uint32_t>(meta.bounded(16));
  spec.workers = 3 + static_cast<std::uint32_t>(meta.bounded(2));

  auto oracle = make_fuzz_flow(spec);
  const stf::FlowImage oracle_image = stf::FlowImage::compile(oracle);
  stf::SequentialExecutor{}.run(oracle_image);

  std::vector<stf::WorkerId> owners(spec.num_tasks);
  for (auto& o : owners)
    o = static_cast<stf::WorkerId>(meta.bounded(spec.workers));
  const auto mapping = rt::mapping::table(owners);

  support::FaultPlan plan;
  plan.seed = spec.seed;
  const std::uint64_t early = 1 + meta.bounded(spec.num_tasks / 2);
  const std::uint64_t late =
      spec.num_tasks / 2 + meta.bounded(spec.num_tasks / 2);
  plan.crash_tasks = {early, late};
  plan.max_crashes = 2;

  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.executes_bodies || !caps.supports_recovery) continue;
    const std::string label(backend->name());
    SCOPED_TRACE(label);

    auto flow = make_fuzz_flow(spec);
    support::FaultInjector injector(plan);
    engine::Launch launch;
    launch.workers = spec.workers;
    launch.fault = &injector;
    if (caps.needs_mapping) launch.mapping = mapping;
    if (caps.partial_mapping) {
      const std::uint64_t segment = 1 + meta.bounded(40);
      launch.partial = [&owners, segment](
                           stf::TaskId t) -> std::optional<stf::WorkerId> {
        if ((t / segment) % 2 == 0) return owners[t];
        return std::nullopt;
      };
    }

    const engine::Outcome out = engine::run_supervised(
        *backend, stf::FlowImage::compile(flow), launch);
    EXPECT_EQ(injector.injected_crashes(), 2u)
        << label << ": the crash plan never fully fired";
    EXPECT_EQ(out.evictions, 2u);
    EXPECT_EQ(out.evicted_workers.size(), 2u);
    expect_same_data(flow, oracle, (label + "+crash").c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzz,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
