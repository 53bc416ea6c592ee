// Failure-injection tests: a throwing task body must cancel the run
// deterministically — every worker drains, the first exception propagates
// to the caller, and the runtime object remains usable. The second half
// covers the resilience layer: deterministic fault injection, retry with
// write rollback, structured TaskFailure escalation and the progress
// watchdog (docs/robustness.md).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "coor/coor.hpp"
#include "engine/registry.hpp"
#include "engine/supervisor.hpp"
#include "hybrid/hybrid.hpp"
#include "obs/obs.hpp"
#include "rio/rio.hpp"
#include "support/fault.hpp"
#include "stf/frontier.hpp"
#include "stf/stf.hpp"

namespace {

using namespace rio;

struct BoomError : std::runtime_error {
  BoomError() : std::runtime_error("boom") {}
};

/// A chain flow whose middle task throws; tasks after it must be skipped
/// (their bodies never run) while the run still terminates.
stf::TaskFlow throwing_flow(int n, int throw_at, std::atomic<int>& executed) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < n; ++i)
    flow.add("t" + std::to_string(i),
             [i, throw_at, &executed](stf::TaskContext&) {
               if (i == throw_at) throw BoomError{};
               executed.fetch_add(1);
             },
             {stf::readwrite(d)});
  return flow;
}

TEST(Failure, EveryBackendPropagatesBodyException) {
  // Registry matrix: every backend that really executes task bodies must
  // propagate the first body exception, and — the tasks forming a chain —
  // must never have run a body past the throwing task.
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    if (!backend->caps().executes_bodies) continue;
    SCOPED_TRACE(std::string(backend->name()));
    std::atomic<int> executed{0};
    auto flow = throwing_flow(40, 10, executed);
    engine::Launch launch;
    launch.workers = 3;
    if (backend->caps().needs_mapping)
      launch.mapping = rt::mapping::round_robin(3);
    EXPECT_THROW((void)backend->run(stf::FlowImage::compile(flow), launch),
                 BoomError);
    // Tasks strictly after the throwing one on the chain never ran.
    EXPECT_EQ(executed.load(), 10);
  }
}

TEST(Failure, RioRuntimeUsableAfterFailure) {
  std::atomic<int> executed{0};
  auto bad = throwing_flow(20, 0, executed);
  rt::Runtime runtime(engine::Launch{.workers = 2});
  const stf::FlowImage bad_image = stf::FlowImage::compile(bad);
  EXPECT_THROW(runtime.run(bad_image, rt::mapping::round_robin(2)), BoomError);

  stf::TaskFlow good;
  auto d = good.create_data<int>("d");
  for (int i = 0; i < 10; ++i)
    good.add("inc", [d](stf::TaskContext& ctx) { ctx.scalar(d) += 1; },
             {stf::readwrite(d)});
  const stf::FlowImage good_image = stf::FlowImage::compile(good);
  runtime.run(good_image, rt::mapping::round_robin(2));
  EXPECT_EQ(*good.registry().typed<int>(d), 10);
}

TEST(Failure, StreamingModePropagates) {
  stf::DataRegistry registry;
  auto d = registry.create<int>("d");
  rt::Runtime runtime(engine::Launch{.workers = 2});
  EXPECT_THROW(
      runtime.run_program(
          registry,
          [d](stf::SubmitSink& sink) {
            for (int i = 0; i < 10; ++i)
              sink.submit(
                  [i](stf::TaskContext&) {
                    if (i == 4) throw BoomError{};
                  },
                  {stf::readwrite(d)}, 1, "");
          },
          rt::mapping::round_robin(2)),
      BoomError);
}

TEST(Failure, HybridPropagatesFromEitherPhaseKind) {
  for (int throw_at : {2, 12}) {  // 2 = static phase, 12 = dynamic phase
    std::atomic<int> executed{0};
    auto flow = throwing_flow(20, throw_at, executed);
    hybrid::Runtime runtime(engine::Launch{.workers = 2});
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    EXPECT_THROW(
        runtime.run(image,
                    [](stf::TaskId t) -> std::optional<stf::WorkerId> {
                      if (t < 10) return static_cast<stf::WorkerId>(t % 2);
                      return std::nullopt;
                    }),
        BoomError)
        << "throw_at=" << throw_at;
    EXPECT_EQ(executed.load(), throw_at);
  }
}

TEST(Failure, SequentialExecutorPropagatesNaturally) {
  std::atomic<int> executed{0};
  auto flow = throwing_flow(10, 3, executed);
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  EXPECT_THROW(stf::SequentialExecutor{}.run(image), BoomError);
  EXPECT_EQ(executed.load(), 3);
}

TEST(Failure, FirstOfManyExceptionsWins) {
  // Independent throwing tasks across workers: exactly one exception
  // surfaces and the run still drains all tasks' bookkeeping.
  stf::TaskFlow flow;
  for (int i = 0; i < 12; ++i)
    flow.add("boom", [](stf::TaskContext&) { throw BoomError{}; }, {});
  rt::Runtime runtime(engine::Launch{.workers = 4});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  EXPECT_THROW(runtime.run(image, rt::mapping::round_robin(4)), BoomError);
}

// ---- Resilience layer ----------------------------------------------------

/// Chain of n increments over one scalar. Injected faults fire AFTER the
/// body ran, so a correct final value proves the rollback really restored
/// the pre-attempt bytes before each re-run.
stf::TaskFlow increment_chain(int n, stf::DataHandle<int>& d_out) {
  stf::TaskFlow flow;
  d_out = flow.create_data<int>("d");
  auto d = d_out;
  for (int i = 0; i < n; ++i)
    flow.add("inc" + std::to_string(i),
             [d](stf::TaskContext& ctx) { ctx.scalar(d) += 1; },
             {stf::readwrite(d)});
  return flow;
}

TEST(Resilience, RetryRecoversWithRollbackOnEveryFaultBackend) {
  // Registry matrix: every executes_bodies backend with the supports_faults
  // capability (rio, rio-pruned, coor, hybrid) must recover an increment
  // chain via retry + rollback. Faults fire AFTER the body ran, so without
  // rollback each faulted task would over-apply its increment.
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.executes_bodies || !caps.supports_faults) continue;
    SCOPED_TRACE(std::string(backend->name()));

    stf::DataHandle<int> d;
    auto flow = increment_chain(24, d);
    support::FaultPlan plan;
    plan.throw_tasks = {5, 18};  // one per default-partial hybrid phase kind
    plan.throw_attempts = 2;     // attempts 1 and 2 throw, attempt 3 succeeds
    support::FaultInjector injector(plan);

    engine::Launch launch;
    launch.workers = 2;
    launch.retry = {.max_attempts = 4};
    launch.fault = &injector;
    if (caps.needs_mapping) launch.mapping = rt::mapping::round_robin(2);
    (void)backend->run(stf::FlowImage::compile(flow), launch);
    EXPECT_EQ(*flow.registry().typed<int>(d), 24);
    EXPECT_EQ(injector.injected_throws(), 4u);
  }
}

TEST(Resilience, RetryExhaustionThrowsTaskFailure) {
  stf::DataHandle<int> d;
  auto flow = increment_chain(15, d);
  support::FaultPlan plan;
  plan.throw_tasks = {7};
  plan.throw_attempts = 99;  // never stops throwing
  support::FaultInjector injector(plan);
  rt::Runtime runtime(engine::Launch{.workers = 2,
                                     .retry = {.max_attempts = 3},
                                     .fault = &injector});
  try {
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    runtime.run(image, rt::mapping::round_robin(2));
    FAIL() << "expected TaskFailure";
  } catch (const stf::TaskFailure& f) {
    EXPECT_EQ(f.report().task, 7u);
    EXPECT_EQ(f.report().attempts, 3u);
    EXPECT_EQ(f.report().name, "inc7");
    ASSERT_TRUE(f.cause());
    EXPECT_THROW(std::rethrow_exception(f.cause()), support::InjectedFault);
  }
  // The chain stops at the failed task; nothing after it ran.
  EXPECT_EQ(*flow.registry().typed<int>(d), 7);
}

TEST(Resilience, NoRetryKeepsBareExceptionContract) {
  // With an injector but retries DISABLED the historical contract holds:
  // the original exception propagates unwrapped.
  stf::DataHandle<int> d;
  auto flow = increment_chain(10, d);
  support::FaultPlan plan;
  plan.throw_tasks = {4};
  plan.throw_attempts = 99;
  support::FaultInjector injector(plan);
  rt::Runtime runtime(engine::Launch{.workers = 2, .fault = &injector});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  EXPECT_THROW(runtime.run(image, rt::mapping::round_robin(2)),
               support::InjectedFault);
}

TEST(Resilience, RioWatchdogFailsStalledRun) {
  stf::DataHandle<int> d;
  auto flow = increment_chain(30, d);
  support::FaultPlan plan;
  plan.stall_tasks = {10};
  plan.stall_ns = 10'000'000'000ull;  // 10 s — far beyond the window
  support::FaultInjector injector(plan);
  rt::Runtime runtime(engine::Launch{.workers = 2,
                                     .fault = &injector,
                                     .watchdog_ns = 200'000'000ull});
  try {
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    runtime.run(image, rt::mapping::round_robin(2));
    FAIL() << "expected StallError";
  } catch (const stf::StallError& e) {
    // The diagnostic names every worker and was captured mid-stall.
    EXPECT_NE(e.diagnostic().find("worker 0"), std::string::npos);
    EXPECT_NE(e.diagnostic().find("worker 1"), std::string::npos);
  }
}

/// Runs `fn` on the calling thread and ends the process if it has not
/// returned after `bound`. A waiter an abort leaves parked never returns,
/// so without this bound only ctest's timeout would end the test.
template <typename Fn>
void within(std::chrono::seconds bound, Fn&& fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread guard([&] {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, bound, [&] { return done; })) {
      std::fprintf(stderr,
                   "run still waiting after %lld s: the abort left a waiter "
                   "parked\n",
                   static_cast<long long>(bound.count()));
      std::abort();
    }
  });
  fn();
  {
    std::lock_guard lock(mu);
    done = true;
  }
  cv.notify_all();
  guard.join();
}

enum class Fault : std::uint8_t { kStall, kCrash };

// Abort drain, wait policy x fault: on every executes_bodies backend with
// supports_watchdog (rio, rio-pruned, coor, hybrid) a run whose progress
// stops must fail, whether its waiters yield or park. A 10 s injected stall
// under a 200 ms window throws StallError; a crash_tasks plan run without
// the supervisor arms the default crash watchdog and throws WorkerLost.
// Under kBlock a crash leaves the survivors parked on a task that never
// publishes, so only the abort's wake gets them out (an interrupted stall
// publishes its task and rings on its own). Task 20 lands in the hybrid
// default partial's dynamic phase, so the hybrid row exercises the
// coor-side watchdog behind the phase barrier.
class WatchdogDrain : public ::testing::TestWithParam<
                          std::tuple<support::WaitPolicy, Fault>> {};

TEST_P(WatchdogDrain, FailsPromptlyOnEveryWatchdogBackend) {
  const auto [policy, fault] = GetParam();
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.executes_bodies || !caps.supports_watchdog) continue;
    SCOPED_TRACE(std::string(backend->name()));

    stf::DataHandle<int> d;
    auto flow = increment_chain(30, d);
    support::FaultPlan plan;
    if (fault == Fault::kStall) {
      plan.stall_tasks = {20};
      plan.stall_ns = 10'000'000'000ull;  // 10 s — far beyond the window
    } else {
      plan.crash_tasks = {20};
      plan.max_crashes = 1;
    }
    support::FaultInjector injector(plan);

    engine::Launch launch;
    launch.workers = 2;
    launch.wait_policy = policy;
    launch.fault = &injector;
    if (fault == Fault::kStall) launch.watchdog_ns = 200'000'000ull;
    if (caps.needs_mapping) launch.mapping = rt::mapping::round_robin(2);
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    within(std::chrono::seconds(5), [&] {
      if (fault == Fault::kStall)
        EXPECT_THROW((void)backend->run(image, launch), stf::StallError);
      else
        EXPECT_THROW((void)backend->run(image, launch), stf::WorkerLost);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByFault, WatchdogDrain,
    ::testing::Combine(::testing::Values(support::WaitPolicy::kSpinYield,
                                         support::WaitPolicy::kBlock),
                       ::testing::Values(Fault::kStall, Fault::kCrash)),
    [](const auto& i) {
      return std::string(std::get<0>(i.param) == support::WaitPolicy::kBlock
                             ? "Block"
                             : "SpinYield") +
             (std::get<1>(i.param) == Fault::kStall ? "_Stall" : "_Crash");
    });

TEST(Resilience, CoorWatchdogFailsStalledRun) {
  stf::DataHandle<int> d;
  auto flow = increment_chain(30, d);
  support::FaultPlan plan;
  plan.stall_tasks = {10};
  plan.stall_ns = 10'000'000'000ull;
  support::FaultInjector injector(plan);
  coor::Runtime runtime(engine::Launch{.workers = 2,
                                       .fault = &injector,
                                       .watchdog_ns = 200'000'000ull});
  try {
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    runtime.run(image);
    FAIL() << "expected StallError";
  } catch (const stf::StallError& e) {
    EXPECT_NE(e.diagnostic().find("coor"), std::string::npos);
    EXPECT_NE(e.diagnostic().find("worker"), std::string::npos);
  }
}

TEST(Resilience, HybridPhaseFailureCancelsLaterPhases) {
  // Three phases (static 0-9, dynamic 10-19, static 20-29); retry
  // exhaustion in the middle phase must propagate as TaskFailure and no
  // body of the last phase may ever run.
  std::atomic<int> max_phase{-1};
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 30; ++i)
    flow.add("t" + std::to_string(i),
             [i, &max_phase](stf::TaskContext&) {
               int phase = i / 10;
               int seen = max_phase.load();
               while (phase > seen &&
                      !max_phase.compare_exchange_weak(seen, phase)) {
               }
             },
             {stf::readwrite(d)});

  support::FaultPlan plan;
  plan.throw_tasks = {12};
  plan.throw_attempts = 99;
  support::FaultInjector injector(plan);
  hybrid::Runtime runtime(engine::Launch{.workers = 2,
                                         .retry = {.max_attempts = 2},
                                         .fault = &injector});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  EXPECT_THROW(
      runtime.run(image,
                  [](stf::TaskId t) -> std::optional<stf::WorkerId> {
                    if (t < 10 || t >= 20)
                      return static_cast<stf::WorkerId>(t % 2);
                    return std::nullopt;
                  }),
      stf::TaskFailure);
  EXPECT_EQ(runtime.completed_phases(), 1u);  // only the first static phase
  EXPECT_EQ(max_phase.load(), 1);             // no phase-2 body ever ran
}

TEST(Resilience, ThrowViaFlowImageRunCancels) {
  // PR-2 replay path: a throwing body reached through run(FlowImage) must
  // cancel exactly like the materialized path.
  std::atomic<int> executed{0};
  auto flow = throwing_flow(30, 9, executed);
  const auto image = stf::FlowImage::compile(flow);
  rt::Runtime runtime(engine::Launch{.workers = 2});
  EXPECT_THROW(runtime.run(image, rt::mapping::round_robin(2)), BoomError);
  EXPECT_EQ(executed.load(), 9);
}

// ---- Per-task retry budgets (support::RetryPolicy::task_attempts) --------

TEST(Resilience, PerTaskRetryBudgetOverridesGlobal) {
  // Task 5 throws on attempts 1-3. The global budget (2) would fail it,
  // but its per-task override (5 attempts) lets attempt 4 succeed.
  stf::DataHandle<int> d;
  auto flow = increment_chain(12, d);
  support::FaultPlan plan;
  plan.throw_tasks = {5};
  plan.throw_attempts = 3;
  support::FaultInjector injector(plan);
  rt::Runtime runtime(
      engine::Launch{.workers = 2,
                     .retry = {.max_attempts = 2, .task_attempts = {{5, 5}}},
                     .fault = &injector});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  runtime.run(image, rt::mapping::round_robin(2));
  EXPECT_EQ(*flow.registry().typed<int>(d), 12);
  EXPECT_EQ(injector.injected_throws(), 3u);
}

TEST(Resilience, PerTaskRetryBudgetCanAlsoShrink) {
  // The override works downward too: a fail-fast task (budget 1) under a
  // generous global budget must escalate with attempts == 1.
  stf::DataHandle<int> d;
  auto flow = increment_chain(12, d);
  support::FaultPlan plan;
  plan.throw_tasks = {5};
  plan.throw_attempts = 99;
  support::FaultInjector injector(plan);
  rt::Runtime runtime(
      engine::Launch{.workers = 2,
                     .retry = {.max_attempts = 4, .task_attempts = {{5, 1}}},
                     .fault = &injector});
  try {
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    runtime.run(image, rt::mapping::round_robin(2));
    FAIL() << "expected TaskFailure";
  } catch (const stf::TaskFailure& f) {
    EXPECT_EQ(f.report().task, 5u);
    EXPECT_EQ(f.report().attempts, 1u);
  }
}

// ---- Worker loss (docs/robustness.md "worker loss and recovery") ---------

TEST(Recovery, CompletionBoardTracksExactFrontier) {
  stf::CompletionBoard board;
  board.reset(10, 100, 4);  // base offset 10, sample every 4 completions
  std::uint32_t pending = 0;
  for (stf::TaskId t = 10; t < 35; ++t) {
    board.mark(t);
    board.note_completion(pending);
  }
  const stf::Frontier f = board.capture();
  EXPECT_EQ(f.completed, 25u);  // capture is exact regardless of sampling
  EXPECT_EQ(f.remaining(), 75u);
  for (stf::TaskId t = 10; t < 35; ++t) EXPECT_TRUE(f.done(t));
  EXPECT_FALSE(f.done(35));
  EXPECT_FALSE(f.done(109));
  // The sampled counter lags by at most sample_every - 1.
  EXPECT_LE(board.sampled_completed(), 25u);
  EXPECT_GE(board.sampled_completed() + 3, 25u);
}

TEST(Recovery, CrashWithoutSupervisorEscalatesWorkerLost) {
  // A crash-armed plan with nobody supervising: the run must abort with
  // stf::WorkerLost (not hang, not succeed), carrying the death record.
  stf::DataHandle<int> d;
  auto flow = increment_chain(20, d);
  support::FaultPlan plan;
  plan.crash_tasks = {8};
  plan.max_crashes = 1;
  support::FaultInjector injector(plan);
  rt::Runtime runtime(engine::Launch{.workers = 2, .fault = &injector});
  try {
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    runtime.run(image, rt::mapping::round_robin(2));
    FAIL() << "expected WorkerLost";
  } catch (const stf::WorkerLost& loss) {
    ASSERT_EQ(loss.deaths().size(), 1u);
    EXPECT_EQ(loss.deaths()[0].task, 8u);
    EXPECT_EQ(loss.deaths()[0].worker, 8u % 2);
  }
  EXPECT_EQ(injector.injected_crashes(), 1u);
}

TEST(Recovery, SupervisedRunRecoversOnEveryRecoveryBackend) {
  // Registry matrix: every executes_bodies backend with supports_recovery
  // (rio, rio-pruned, coor, hybrid) survives a worker death mid-run via
  // evict-and-remap and still produces the exact sequential result. The
  // crash fires AFTER the body ran, so a correct final value proves the
  // dirty-span restore + frontier replay really happened.
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.executes_bodies || !caps.supports_recovery) continue;
    SCOPED_TRACE(std::string(backend->name()));

    stf::DataHandle<int> d;
    auto flow = increment_chain(40, d);
    support::FaultPlan plan;
    plan.crash_tasks = {9};
    plan.max_crashes = 1;
    support::FaultInjector injector(plan);

    engine::Launch launch;
    launch.workers = 3;
    launch.fault = &injector;
    if (caps.needs_mapping) launch.mapping = rt::mapping::round_robin(3);
    const engine::Outcome out = engine::run_supervised(
        *backend, stf::FlowImage::compile(flow), launch);
    EXPECT_EQ(*flow.registry().typed<int>(d), 40);
    EXPECT_EQ(out.evictions, 1u);
    ASSERT_EQ(out.evicted_workers.size(), 1u);
    EXPECT_EQ(injector.injected_crashes(), 1u);
    EXPECT_GT(out.recovery_wall_ns, 0u);
  }
}

TEST(Recovery, SupervisorRethrowsWhenWorkersExhausted) {
  // Unlimited crash budget on one stubborn task: the supervisor evicts
  // down to a single worker, then the next death must escalate.
  stf::DataHandle<int> d;
  auto flow = increment_chain(20, d);
  support::FaultPlan plan;
  plan.crash_tasks = {6};  // max_crashes = 0: crashes forever
  support::FaultInjector injector(plan);

  const engine::Backend* rio = engine::Registry::instance().find("rio");
  ASSERT_NE(rio, nullptr);
  engine::Launch launch;
  launch.workers = 2;
  launch.fault = &injector;
  launch.mapping = rt::mapping::round_robin(2);
  EXPECT_THROW((void)engine::run_supervised(
                   *rio, stf::FlowImage::compile(flow), launch),
               stf::WorkerLost);
  EXPECT_EQ(injector.injected_crashes(), 2u);  // one per pool size 2, 1
}

TEST(Recovery, SupervisorHonoursEvictionBudget) {
  stf::DataHandle<int> d;
  auto flow = increment_chain(20, d);
  support::FaultPlan plan;
  plan.crash_tasks = {3, 11};
  plan.max_crashes = 2;
  support::FaultInjector injector(plan);

  const engine::Backend* rio = engine::Registry::instance().find("rio");
  ASSERT_NE(rio, nullptr);
  engine::Launch launch;
  launch.workers = 4;
  launch.fault = &injector;
  launch.mapping = rt::mapping::round_robin(4);
  engine::SupervisorOptions opts;
  opts.max_evictions = 1;  // the second death exceeds the budget
  EXPECT_THROW((void)engine::run_supervised(
                   *rio, stf::FlowImage::compile(flow), launch, opts),
               stf::WorkerLost);
}

TEST(Recovery, ResumeSkipsFrontierTasksAndReportsReplay) {
  // Direct resume (no supervisor): a frontier claiming tasks 0-9 done
  // must keep those bodies from running again while the protocol still
  // walks them, and the replay count must surface via obs.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  std::atomic<int> executed{0};
  for (int i = 0; i < 20; ++i)
    flow.add("t" + std::to_string(i),
             [&executed, d](stf::TaskContext& ctx) {
               ctx.scalar(d) += 1;
               executed.fetch_add(1);
             },
             {stf::readwrite(d)});

  stf::CompletionBoard board;
  board.reset(0, 20);
  for (stf::TaskId t = 0; t < 10; ++t) board.mark(t);
  const stf::Frontier frontier = board.capture();

  obs::Hub hub;
  rt::Runtime runtime(engine::Launch{.workers = 2,
                                     .resume = &frontier,
                                     .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  runtime.run(image, rt::mapping::round_robin(2));
  EXPECT_EQ(executed.load(), 10);  // only the un-done half ran
  EXPECT_EQ(*flow.registry().typed<int>(d), 10);
  EXPECT_EQ(hub.counter_snapshot().total(obs::Counter::kTasksReplayed), 10u);
}

TEST(Recovery, EvictedMappingCoversAllWorkersInRange) {
  // mapping::evict: survivors keep a contiguous id space and every task
  // lands on a live worker.
  const rt::Mapping m = rt::mapping::round_robin(4);
  const rt::Mapping e = rt::mapping::evict(m, 1, 4);
  for (stf::TaskId t = 0; t < 64; ++t) {
    const stf::WorkerId w = e(t);
    EXPECT_LT(w, 3u);
    const stf::WorkerId old = m(t);
    if (old != 1) EXPECT_EQ(w, old > 1 ? old - 1 : old);
  }
}

TEST(Resilience, PrunedCachedPlanSurvivesFailure) {
  // A cancelled run through the cached-plan fast path must not poison the
  // cache: the next run over the same (image, mapping) reuses the plan and
  // completes.
  std::atomic<bool> armed{true};
  std::atomic<int> executed{0};
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 20; ++i)
    flow.add("t" + std::to_string(i),
             [i, &armed, &executed](stf::TaskContext&) {
               if (i == 7 && armed.load()) throw BoomError{};
               executed.fetch_add(1);
             },
             {stf::readwrite(d)});
  const auto image = stf::FlowImage::compile(flow);
  const auto mapping = rt::mapping::round_robin(2);
  rt::Runtime runtime(engine::Launch{.workers = 2});

  EXPECT_THROW(runtime.run_pruned(image, mapping), BoomError);
  EXPECT_EQ(executed.load(), 7);

  armed.store(false);
  executed.store(0);
  runtime.run_pruned(image, mapping);  // must not throw
  EXPECT_EQ(executed.load(), 20);
  EXPECT_EQ(runtime.plan_compiles(), 1u);  // plan compiled exactly once
}

/// Order-sensitive flow over four scalars: task i folds its id and a
/// neighbour's value into d[i mod 4], so the final bytes pin the exact
/// dependency order. While `armed` is set, task `throw_at` always throws.
stf::TaskFlow folding_flow(int n, int throw_at, const std::atomic<bool>& armed) {
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> d;
  for (int k = 0; k < 4; ++k)
    d.push_back(flow.create_data<std::uint64_t>("d" + std::to_string(k)));
  for (int i = 0; i < n; ++i) {
    const auto mine = d[i % 4];
    const auto next = d[(i + 1) % 4];
    flow.add("fold" + std::to_string(i),
             [i, throw_at, mine, next, &armed](stf::TaskContext& ctx) {
               if (i == throw_at && armed.load()) throw BoomError{};
               ctx.scalar(mine) = ctx.scalar(mine) * 31 +
                                  ctx.scalar(next, stf::AccessMode::kRead) +
                                  static_cast<std::uint64_t>(i);
             },
             {stf::readwrite(mine), stf::read(next)});
  }
  return flow;
}

std::vector<std::uint64_t> scalars(const stf::DataRegistry& r) {
  std::vector<std::uint64_t> out;
  for (stf::DataId id = 0; id < r.size(); ++id)
    out.push_back(*static_cast<const std::uint64_t*>(r.raw(id)));
  return out;
}

void zero_scalars(const stf::DataRegistry& r) {
  for (stf::DataId id = 0; id < r.size(); ++id)
    *static_cast<std::uint64_t*>(r.raw(id)) = 0;
}

TEST(Resilience, FullAndPrunedRunsShareArenasWithoutLeaks) {
  // One Runtime, one image, alternating front ends around a failed run:
  // full -> pruned (task 7 exhausts its retries) -> pruned -> full. Both
  // front ends recycle the same RunArenas, so a replica or sync word left
  // dirty by an earlier (or a cancelled) run would corrupt the next one.
  const std::atomic<bool> never{false};
  stf::TaskFlow oracle_flow = folding_flow(48, 7, never);
  const stf::FlowImage oracle_image = stf::FlowImage::compile(oracle_flow);
  stf::SequentialExecutor{}.run(oracle_image);
  const std::vector<std::uint64_t> oracle = scalars(oracle_flow.registry());

  std::atomic<bool> armed{false};
  stf::TaskFlow flow = folding_flow(48, 7, armed);
  const auto image = stf::FlowImage::compile(flow);
  const auto mapping = rt::mapping::round_robin(3);
  // The watchdog turns a leaked sync word (a wait that can never be
  // satisfied) into a StallError instead of a hung test.
  rt::Runtime runtime(engine::Launch{.workers = 3,
                                     .retry = {.max_attempts = 2},
                                     .watchdog_ns = 2'000'000'000ull});

  runtime.run(image, mapping);
  EXPECT_EQ(scalars(flow.registry()), oracle) << "full run";

  zero_scalars(flow.registry());
  armed.store(true);
  try {
    runtime.run_pruned(image, mapping);
    FAIL() << "expected TaskFailure";
  } catch (const stf::TaskFailure& f) {
    EXPECT_EQ(f.report().task, 7u);
    EXPECT_EQ(f.report().attempts, 2u);
  }
  armed.store(false);

  zero_scalars(flow.registry());
  runtime.run_pruned(image, mapping);
  EXPECT_EQ(scalars(flow.registry()), oracle) << "pruned run after failure";

  zero_scalars(flow.registry());
  runtime.run(image, mapping);
  EXPECT_EQ(scalars(flow.registry()), oracle) << "full run after pruned";

  EXPECT_EQ(runtime.plan_compiles(), 1u);  // both pruned runs share a plan
}

TEST(Resilience, PrunedStallDiagnosticNamesPrunedEngine) {
  // The fork-join core is shared, so the engine label is the only thing
  // telling a pruned stall from a full one in the diagnostic.
  stf::DataHandle<int> d;
  auto flow = increment_chain(30, d);
  const auto image = stf::FlowImage::compile(flow);
  const auto mapping = rt::mapping::round_robin(2);
  support::FaultPlan plan;
  plan.stall_tasks = {10};
  plan.stall_ns = 10'000'000'000ull;  // 10 s — far beyond the window
  support::FaultInjector injector(plan);
  rt::Runtime runtime(engine::Launch{.workers = 2,
                                     .fault = &injector,
                                     .watchdog_ns = 200'000'000ull});
  try {
    runtime.run_pruned(image, mapping);
    FAIL() << "expected StallError";
  } catch (const stf::StallError& e) {
    EXPECT_EQ(e.diagnostic().rfind("rio-pruned: no progress", 0), 0u)
        << e.diagnostic();
    EXPECT_NE(e.diagnostic().find("worker 1"), std::string::npos);
  }
  try {
    runtime.run(image, mapping);
    FAIL() << "expected StallError";
  } catch (const stf::StallError& e) {
    EXPECT_EQ(e.diagnostic().rfind("rio: no progress", 0), 0u)
        << e.diagnostic();
  }
}

TEST(Recovery, PrunedCrashWithoutWatchdogEscalatesWorkerLost) {
  // No watchdog configured: the crash-armed plan must still arm the
  // default one on the pruned path, so the death escalates instead of
  // hanging the survivors.
  stf::DataHandle<int> d;
  auto flow = increment_chain(20, d);
  const auto image = stf::FlowImage::compile(flow);
  support::FaultPlan plan;
  plan.crash_tasks = {8};
  plan.max_crashes = 1;
  support::FaultInjector injector(plan);
  rt::Runtime runtime(engine::Launch{.workers = 2, .fault = &injector});
  try {
    runtime.run_pruned(image, rt::mapping::round_robin(2));
    FAIL() << "expected WorkerLost";
  } catch (const stf::WorkerLost& loss) {
    ASSERT_EQ(loss.deaths().size(), 1u);
    EXPECT_EQ(loss.deaths()[0].task, 8u);
    EXPECT_EQ(loss.deaths()[0].worker, 8u % 2);
  }
  EXPECT_EQ(injector.injected_crashes(), 1u);
}

}  // namespace
