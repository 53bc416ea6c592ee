// Tests for rio::obs — the unified telemetry layer (docs/observability.md).
//
// The load-bearing properties:
//   * reconciliation: the flight recorder's kBody spans, the execution
//     trace's busy intervals and the RunStats tau buckets all describe the
//     SAME clock reads, so they must agree exactly (not approximately);
//   * ring overflow drops oldest and accounts for every lost event;
//   * the disabled path (null hub / unbound lens) never allocates;
//   * counters match the run's ground truth (tasks executed, waits,
//     injected faults, retries);
//   * the simulators emit the same schema in virtual ticks with the exact
//     per-worker identity kBody + kAcquireWait + kMgmt == makespan;
//   * obs.json round-trips the e_p / e_r decomposition bit-for-bit;
//   * the span sampler represents every task exactly once, estimates
//     periodic, stepped and random duration sequences without bias, and
//     the default launch times few tasks while every consumer that needs
//     each span still gets all of them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coor/coor.hpp"
#include "engine/registry.hpp"
#include "hybrid/runtime.hpp"
#include "metrics/efficiency.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "recorded_trace.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "support/clock.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

// Global allocation counter for the disabled-path guard. Counting is
// relaxed: we only compare totals before/after single-threaded sections.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rio;

constexpr std::size_t kBodyIdx = static_cast<std::size_t>(obs::Phase::kBody);
constexpr std::size_t kWaitIdx =
    static_cast<std::size_t>(obs::Phase::kAcquireWait);
constexpr std::size_t kStealIdx = static_cast<std::size_t>(obs::Phase::kSteal);
constexpr std::size_t kMgmtIdx = static_cast<std::size_t>(obs::Phase::kMgmt);

workloads::Workload cholesky(std::uint32_t tiles, std::uint32_t workers) {
  workloads::CholeskyDagSpec s;
  s.tiles = tiles;
  s.task_cost = 2000;
  s.body = workloads::BodyKind::kCounter;
  s.num_workers = workers;
  return workloads::make_cholesky_dag(s);
}

std::vector<std::uint64_t> trace_busy(const stf::Trace& trace,
                                      std::size_t workers) {
  std::vector<std::uint64_t> busy(workers, 0);
  for (const stf::TraceEvent& ev : trace.events())
    busy[ev.worker] += ev.end_ns - ev.start_ns;
  return busy;
}

std::vector<std::uint64_t> ring_body(const obs::Hub& hub) {
  std::vector<std::uint64_t> body(hub.num_workers(), 0);
  for (const obs::Event& ev : hub.drain_events())
    if (ev.phase == obs::Phase::kBody) body[ev.worker] += ev.end - ev.begin;
  return body;
}

// ------------------------------------------------------------- recorder ----

TEST(ObsRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::EventRing(1).capacity(), 1u);
  EXPECT_EQ(obs::EventRing(3).capacity(), 4u);
  EXPECT_EQ(obs::EventRing(4).capacity(), 4u);
  EXPECT_EQ(obs::EventRing(1000).capacity(), 1024u);
}

TEST(ObsRing, OverflowDropsOldestAndAccounts) {
  obs::EventRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.push(obs::Event{i, i + 1, i, 0, obs::Phase::kBody});
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.recorded(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<obs::Event> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().task, 6u);  // oldest retained, in push order
  EXPECT_EQ(out.back().task, 9u);
}

TEST(ObsRing, RecorderSumsAcrossWorkers) {
  obs::Recorder rec(4);
  rec.ensure(2);
  for (std::uint64_t i = 0; i < 6; ++i)
    rec.ring(0)->push(obs::Event{i, i, i, 0, obs::Phase::kSteal});
  rec.ring(1)->push(obs::Event{0, 0, 0, 1, obs::Phase::kSteal});
  EXPECT_EQ(rec.recorded(), 5u);  // 4 retained on worker 0 + 1 on worker 1
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.ring(7), nullptr);
}

TEST(ObsRing, EngineDropsAreReportedNotLost) {
  // A deliberately tiny ring: the run must still complete, and the hub must
  // report exactly how many events did not fit.
  auto wl = cholesky(5, 2);
  obs::Hub hub(obs::HubOptions{.recorder = true, .ring_capacity = 8});
  rt::Runtime eng(engine::Launch{.workers = 2,
                                 .collect_stats = false,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  eng.run(image, wl.mapping(2));
  EXPECT_GT(hub.dropped(), 0u);
  EXPECT_LE(hub.recorded(), 2u * 8u);
  EXPECT_EQ(hub.drain_events().size(), hub.recorded());
}

// -------------------------------------------------------- disabled path ----

TEST(ObsDisabled, UnboundLensNeverAllocates) {
  obs::WorkerObs ob;
  EXPECT_FALSE(ob.recording());
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ob.span(obs::Phase::kBody, 7, 10, 20);
    ob.instant(obs::Phase::kFaultInjected, 7, 15);
    ob.count(obs::Counter::kTasksExecuted);
    ob.spin_iters += 3;
  }
  ob.commit(nullptr);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
  EXPECT_EQ(ob.phase_ns[kBodyIdx], 10000u);  // locals still accumulate
}

TEST(ObsDisabled, BoundLensEventsNeverAllocate) {
  obs::Hub hub(obs::HubOptions{.recorder = true, .ring_capacity = 16});
  hub.ensure_workers(1);
  obs::WorkerObs ob;
  ob.bind(&hub, 0);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {  // far beyond capacity: overwrite path
    ob.span(obs::Phase::kBody, 1, 0, 5);
    ob.count(obs::Counter::kSteals);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
      << "hot-path span/count allocated";
}

TEST(ObsDisabled, CountersOnlyHubHasNoRecorder) {
  obs::Hub hub;  // default: counters only
  hub.ensure_workers(4);
  EXPECT_FALSE(hub.recorder_enabled());
  EXPECT_EQ(hub.ring_capacity(), 0u);
  EXPECT_EQ(hub.recorded(), 0u);
  obs::WorkerObs ob;
  ob.bind(&hub, 0);
  EXPECT_FALSE(ob.recording());
  EXPECT_TRUE(hub.drain_events().empty());
}

TEST(ObsDisabled, NullHubRunLeavesNothingBehind) {
  // Engines run with cfg.obs == nullptr: a separate hub stays all-zero.
  auto wl = cholesky(3, 2);
  rt::Runtime eng(engine::Launch{.workers = 2});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  eng.run(image, wl.mapping(2));
  obs::Hub hub;
  const obs::CounterSnapshot snap = hub.counter_snapshot();
  for (std::size_t c = 0; c < obs::kNumCounters; ++c)
    EXPECT_EQ(snap.total(static_cast<obs::Counter>(c)), 0u);
  EXPECT_EQ(hub.num_workers(), 0u);
}

// -------------------------------------------------------- reconciliation ---

TEST(ObsReconcile, RioTraceRingAndBucketsAgreeExactly) {
  const std::uint32_t p = 2;
  auto wl = cholesky(4, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  rt::Runtime eng(engine::Launch{.workers = p,
                                 .collect_stats = true,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto stats = eng.run(image, wl.mapping(p));

  // The trace is built from the ring's kBody spans, one event per span:
  // its busy time equals the ring's exactly, not approximately.
  const auto busy = trace_busy(testutil::recorded_trace(hub), p);
  const auto body = ring_body(hub);
  ASSERT_EQ(hub.num_workers(), p);
  std::uint64_t waits = 0;
  for (std::uint32_t w = 0; w < p; ++w) {
    EXPECT_EQ(body[w], busy[w]) << "worker " << w;
    const auto& ph = hub.phase_totals(w);
    EXPECT_EQ(ph[kBodyIdx], stats.workers[w].buckets.task_ns);
    EXPECT_EQ(ph[kWaitIdx] + ph[kStealIdx], stats.workers[w].buckets.idle_ns);
    waits += stats.workers[w].waits;
  }
  const obs::CounterSnapshot snap = hub.counter_snapshot();
  EXPECT_EQ(snap.total(obs::Counter::kTasksExecuted), wl.flow.num_tasks());
  EXPECT_EQ(snap.total(obs::Counter::kProtocolWaits), waits);
  for (std::uint32_t w = 0; w < p; ++w)
    EXPECT_EQ(snap.worker_value(w, obs::Counter::kTasksExecuted),
              stats.workers[w].tasks_executed);
}

TEST(ObsReconcile, PrunedRioAgreesToo) {
  const std::uint32_t p = 2;
  auto wl = cholesky(4, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rt::Runtime eng(engine::Launch{.workers = p,
                                 .collect_stats = true,
                                 .obs = &hub});
  const auto stats = eng.run_pruned(image, wl.mapping(p));
  const auto busy = trace_busy(testutil::recorded_trace(hub), p);
  const auto body = ring_body(hub);
  for (std::uint32_t w = 0; w < p; ++w) {
    EXPECT_EQ(body[w], busy[w]) << "worker " << w;
    EXPECT_EQ(hub.phase_totals(w)[kBodyIdx],
              stats.workers[w].buckets.task_ns);
  }
  EXPECT_EQ(hub.counter_snapshot().total(obs::Counter::kTasksExecuted),
            wl.flow.num_tasks());
}

TEST(ObsReconcile, CoorWorkersAndMasterAgree) {
  const std::uint32_t p = 2;
  auto wl = cholesky(4, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  coor::Runtime eng(engine::Launch{.workers = p,
                                   .collect_stats = true,
                                   .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto stats = eng.run(image);
  ASSERT_EQ(hub.num_workers(), p + 1);
  const auto busy = trace_busy(testutil::recorded_trace(hub), p);
  const auto body = ring_body(hub);
  for (std::uint32_t w = 0; w < p; ++w) {
    EXPECT_EQ(body[w], busy[w]) << "worker " << w;
    EXPECT_EQ(hub.phase_totals(w)[kBodyIdx],
              stats.workers[w].buckets.task_ns);
    EXPECT_EQ(hub.phase_totals(w)[kWaitIdx] + hub.phase_totals(w)[kStealIdx],
              stats.workers[w].buckets.idle_ns);
  }
  // Master slot p: its kMgmt phase IS its runtime bucket (the unroll loop).
  EXPECT_EQ(hub.phase_totals(p)[kMgmtIdx],
            stats.workers[p].buckets.runtime_ns);
  EXPECT_EQ(hub.phase_totals(p)[kBodyIdx], 0u);
  const obs::CounterSnapshot snap = hub.counter_snapshot();
  EXPECT_EQ(snap.total(obs::Counter::kTasksExecuted), wl.flow.num_tasks());
  EXPECT_EQ(snap.total(obs::Counter::kQueuePops), wl.flow.num_tasks());
  EXPECT_EQ(snap.total(obs::Counter::kQueuePushes), wl.flow.num_tasks());
  // A wait is a pop that found the worker's queue empty, counted the same
  // way in the stats and the counters.
  std::uint64_t waits = 0;
  for (const auto& ws : stats.workers) waits += ws.waits;
  EXPECT_EQ(snap.total(obs::Counter::kProtocolWaits), waits);
}

TEST(ObsReconcile, HybridAccumulatesAcrossPhases) {
  const std::uint32_t p = 2;
  auto wl = cholesky(4, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  hybrid::Runtime eng(engine::Launch{.workers = p,
                                     .collect_stats = true,
                                     .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto stats = eng.run(
      image, [p](stf::TaskId t) -> std::optional<stf::WorkerId> {
        if ((t / 4) % 2 == 0) return static_cast<stf::WorkerId>(t % p);
        return std::nullopt;
      });
  EXPECT_GT(eng.last_phase_count(), 1u);
  ASSERT_EQ(hub.num_workers(), p + 1);
  // Buckets folded per phase == phase totals accumulated across phases.
  for (std::uint32_t w = 0; w < p; ++w)
    EXPECT_EQ(hub.phase_totals(w)[kBodyIdx],
              stats.workers[w].buckets.task_ns);
  EXPECT_EQ(hub.counter_snapshot().total(obs::Counter::kTasksExecuted),
            wl.flow.num_tasks());
}

TEST(ObsReconcile, RetryCountersMatchInjector) {
  auto wl = cholesky(4, 2);
  support::FaultPlan plan;
  plan.throw_tasks = {3, 7};
  support::FaultInjector injector(plan);
  obs::Hub hub;
  rt::Runtime eng(engine::Launch{.workers = 2,
                                 .collect_stats = false,
                                 .retry = {.max_attempts = 3},
                                 .fault = &injector,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  eng.run(image, wl.mapping(2));
  const obs::CounterSnapshot snap = hub.counter_snapshot();
  EXPECT_EQ(snap.total(obs::Counter::kFaultsInjected),
            injector.injected_throws());
  EXPECT_EQ(snap.total(obs::Counter::kRetries), injector.injected_throws());
  EXPECT_EQ(snap.total(obs::Counter::kFaultsInjected), 2u);
}

// Under kBlock a rio release rings every peer's doorbell, but a task without
// accesses published no word a peer could wait on, so it rings none: an
// access-free flow counts zero wakeups on both rio front ends.
TEST(ObsReconcile, BlockRioRingsNoBellForAccessFreeTasks) {
  const std::uint32_t p = 3;
  auto wl = workloads::make_independent({.num_tasks = 600,
                                         .task_cost = 0,
                                         .body = workloads::BodyKind::kCounter,
                                         .num_workers = p});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  for (const char* name : {"rio", "rio-pruned"}) {
    SCOPED_TRACE(name);
    obs::Hub hub;
    const engine::Launch launch{.workers = p,
                                .wait_policy = support::WaitPolicy::kBlock,
                                .mapping = wl.mapping(p),
                                .obs = &hub};
    (void)engine::Registry::instance().find(name)->run(image, launch);
    const obs::CounterSnapshot snap = hub.counter_snapshot();
    EXPECT_EQ(snap.total(obs::Counter::kTasksExecuted), wl.flow.num_tasks());
    EXPECT_EQ(snap.total(obs::Counter::kWakeups), 0u);
    EXPECT_EQ(snap.total(obs::Counter::kWakeupsIssued), 0u);
    EXPECT_EQ(snap.total(obs::Counter::kWakeupsElided), 0u);
  }
}

// ------------------------------------------------------------- sampler ----

constexpr std::size_t kSynthetic = 16384;

/// Synthetic body durations in ns, one per executed task.
using Durations = std::vector<std::uint64_t>;

Durations synthetic(std::uint64_t (*f)(std::size_t)) {
  Durations d(kSynthetic);
  for (std::size_t i = 0; i < kSynthetic; ++i) d[i] = f(i);
  return d;
}

Durations uniform_random() {
  support::Xoshiro256 rng(99);
  Durations d(kSynthetic);
  for (auto& x : d) x = 10 + rng.bounded(1000);
  return d;
}

std::uint64_t exact_sum(const Durations& d) {
  std::uint64_t n = 0;
  for (const std::uint64_t x : d) n += x;
  return n;
}

struct Estimate {
  std::uint64_t body_ns = 0;  ///< the lens's estimated body total
  std::uint64_t weights = 0;  ///< weights of the timed tasks
  std::uint64_t tail = 0;     ///< untimed tasks after the last timed one
  std::uint64_t timed = 0;
};

/// Feeds `d` through a default-mode lens seeded with `seed`, the way an
/// engine worker reports its executed tasks.
Estimate estimate(const Durations& d, std::uint64_t seed) {
  obs::WorkerObs ob;
  ob.sampler = obs::SpanSampler(0, seed);
  Estimate e;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (!ob.sampler.next()) continue;
    e.weights += ob.sampler.weight();
    ob.body(i, 0, d[i]);
  }
  e.tail = ob.sampler.tail();
  e.timed = ob.sampler.timed();
  ob.commit(nullptr);
  e.body_ns = ob.phase_ns[kBodyIdx];
  return e;
}

/// Mean over 256 seeds of the estimate, relative to the exact sum.
double mean_ratio(const Durations& d) {
  double sum = 0;
  for (std::uint64_t seed = 0; seed < 256; ++seed)
    sum += static_cast<double>(estimate(d, seed).body_ns);
  return sum / 256 / static_cast<double>(exact_sum(d));
}

std::uint64_t constant_ns(std::size_t) { return 100; }
std::uint64_t long_ns(std::size_t i) { return obs::kLongBodyNs + i % 7; }
std::uint64_t period2_ns(std::size_t i) { return i % 2 != 0 ? 1000 : 10; }
std::uint64_t period3_ns(std::size_t i) {
  return i % 3 == 0 ? 60 : (i % 3 == 1 ? 10 : 20);
}
std::uint64_t step_ns(std::size_t i) { return i < kSynthetic / 2 ? 10 : 100; }
std::uint64_t spike_ns(std::size_t i) { return i % 64 == 0 ? 10000 : 10; }

TEST(ObsSampler, WeightsAndTailSumToTaskCount) {
  for (const Durations& d :
       {synthetic(constant_ns), synthetic(long_ns), synthetic(period2_ns),
        synthetic(period3_ns), synthetic(step_ns), uniform_random(),
        synthetic(spike_ns)}) {
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
      const Estimate e = estimate(d, seed);
      ASSERT_EQ(e.weights + e.tail, kSynthetic) << "seed " << seed;
      ASSERT_GE(e.timed, 1u);
    }
  }
}

TEST(ObsSampler, ConstantAndLongFlowsAreExact) {
  const Durations constant = synthetic(constant_ns);
  const Durations coarse = synthetic(long_ns);
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const Estimate c = estimate(constant, seed);
    EXPECT_EQ(c.body_ns, exact_sum(constant));
    EXPECT_LT(c.timed, kSynthetic / 16);  // about one task in 64
    // Every body is long: each keeps the next task timed.
    const Estimate l = estimate(coarse, seed);
    EXPECT_EQ(l.timed, kSynthetic);
    EXPECT_EQ(l.body_ns, exact_sum(coarse));
  }
}

TEST(ObsSampler, AveragedEstimateIsUnbiased) {
  // Single seeds spread by several percent; averaged over 256 seeds the
  // jittered gaps leave no aliasing bias on periodic sequences.
  EXPECT_NEAR(mean_ratio(synthetic(period2_ns)), 1.0, 0.02);
  EXPECT_NEAR(mean_ratio(synthetic(period3_ns)), 1.0, 0.02);
  EXPECT_NEAR(mean_ratio(synthetic(step_ns)), 1.0, 0.02);
  EXPECT_NEAR(mean_ratio(uniform_random()), 1.0, 0.02);
  // Rare 10 µs spikes among 10 ns bodies: 1 in 64, the mean gap.
  EXPECT_NEAR(mean_ratio(synthetic(spike_ns)), 1.0, 0.10);
}

TEST(ObsSampler, SameSeedTimesSamePositions) {
  obs::SpanSampler a(0, 42), b(0, 42), other(0, 43);
  bool differs = false;
  for (std::size_t i = 0; i < kSynthetic; ++i) {
    const bool ta = a.next();
    ASSERT_EQ(ta, b.next()) << "task " << i;
    differs |= ta != other.next();
  }
  EXPECT_EQ(a.timed(), b.timed());
  EXPECT_TRUE(differs);
}

TEST(ObsSampler, FixedStrideTimesEveryNth) {
  obs::SpanSampler s(5);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(s.next(), i % 5 == 0) << "task " << i;
    s.note_body(obs::kLongBodyNs * 10);  // a fixed stride ignores long bodies
  }
  EXPECT_EQ(s.timed(), 20u);
  EXPECT_EQ(s.untimed(), 80u);
}

// --------------------------------------------------- sampled engine stats --

constexpr std::uint32_t kStatWorkers = 2;

std::uint64_t total_timed(const support::RunStats& s) {
  std::uint64_t n = 0;
  for (const auto& w : s.workers) n += w.tasks_timed;
  return n;
}

/// The tasks a fresh default sampler of worker `w` times over `executed`
/// tasks: its schedule when no body runs long. A long body only pulls the
/// later timed positions earlier, so a run never times fewer.
std::uint64_t scheduled_timed(std::uint32_t w, std::uint64_t executed) {
  obs::SpanSampler s(0, w);
  for (std::uint64_t i = 0; i < executed; ++i) (void)s.next();
  return s.timed();
}

engine::Outcome run_backend(const char* name, const workloads::Workload& wl,
                            engine::Launch launch = {}) {
  const engine::Backend* b = engine::Registry::instance().find(name);
  EXPECT_NE(b, nullptr) << name;
  launch.workers = kStatWorkers;
  if (b->caps().needs_mapping) launch.mapping = wl.mapping(kStatWorkers);
  return b->run(stf::FlowImage::compile(wl.flow), launch);
}

workloads::Workload fine_independent() {
  return workloads::make_independent({.num_tasks = kSynthetic,
                                      .task_cost = 0,
                                      .body = workloads::BodyKind::kCounter,
                                      .num_workers = kStatWorkers});
}

/// Independent tasks whose bodies each spin for at least 20 µs.
workloads::Workload coarse_independent(std::size_t n) {
  workloads::Workload wl;
  wl.name = "coarse-independent";
  for (std::size_t t = 0; t < n; ++t) {
    wl.flow.submit(
        [](stf::TaskContext&) {
          const std::uint64_t t0 = support::monotonic_ns();
          while (support::monotonic_ns() - t0 < 20'000) {
          }
        },
        {}, 20'000);
    wl.owners.push_back(static_cast<stf::WorkerId>(t % kStatWorkers));
  }
  return wl;
}

TEST(ObsSampledStats, DefaultLaunchTimesFewTasks) {
  const auto wl = fine_independent();
  const std::uint64_t n = wl.flow.num_tasks();
  for (const char* e : {"seq", "rio", "rio-pruned", "coor"}) {
    SCOPED_TRACE(e);
    // Seeded per worker: every worker times at least the positions its
    // fresh sampler schedules, however slow (preempted, cold or
    // sanitized) the timed bodies run. A seed that varied per run would
    // time fewer on about half of these worker runs.
    for (int run = 0; run < 4; ++run) {
      const engine::Outcome a = run_backend(e, wl);
      EXPECT_EQ(a.stats.tasks_executed(), n);
      EXPECT_LE(total_timed(a.stats), n / 16);
      for (std::uint32_t w = 0; w < a.stats.workers.size(); ++w) {
        const support::WorkerStats& ws = a.stats.workers[w];
        EXPECT_GE(ws.tasks_timed, scheduled_timed(w, ws.tasks_executed))
            << "worker " << w << ", run " << run;
      }
    }
  }
  // hybrid: every phase times its first task per worker.
  const engine::Outcome h = run_backend("hybrid", wl);
  EXPECT_EQ(h.stats.tasks_executed(), n);
  EXPECT_LT(total_timed(h.stats), n / 2);
}

TEST(ObsSampledStats, EveryTaskTimedWhenEachSpanIsNeeded) {
  const auto wl = cholesky(4, kStatWorkers);
  const auto all_timed = [](const support::RunStats& s) {
    for (const auto& w : s.workers)
      if (w.tasks_timed != w.tasks_executed) return false;
    return s.tasks_executed() > 0;
  };
  for (const engine::Backend* b : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = b->caps();
    const char* e = b->name().data();
    SCOPED_TRACE(std::string(b->name()));
    if (caps.virtual_time) {
      // The simulators time every task.
      EXPECT_TRUE(all_timed(run_backend(e, wl).stats));
      continue;
    }
    if (caps.supports_obs) {
      obs::Hub hub(obs::HubOptions{.recorder = true});  // sample 1
      engine::Launch recorded;
      recorded.obs = &hub;
      EXPECT_TRUE(all_timed(run_backend(e, wl, recorded).stats));
    }
    // Bodies of 20 µs and more: each keeps the next task timed.
    EXPECT_TRUE(all_timed(run_backend(e, coarse_independent(48)).stats));
  }
}

// ------------------------------------------------------- registry matrix ---

TEST(ObsMatrix, EverySupportsObsBackendPopulatesTheHub) {
  // Capability-driven sweep: any backend advertising supports_obs — real or
  // virtual-time, present or future — must wire a Launch's hub through to
  // its workers. Catches a backend that registers the flag but drops the
  // obs pointer on the floor when translating Launch to its native config.
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.supports_obs) continue;
    SCOPED_TRACE(std::string(backend->name()));

    const std::uint32_t p = 2;
    auto wl = cholesky(4, p);
    obs::Hub hub(obs::HubOptions{.recorder = true});
    engine::Launch launch;
    launch.workers = p;
    launch.obs = &hub;
    if (caps.needs_mapping) launch.mapping = wl.mapping(p);
    (void)backend->run(stf::FlowImage::compile(wl.flow), launch);

    EXPECT_EQ(hub.num_workers(), caps.has_master ? p + 1 : p);
    if (caps.virtual_time)
      EXPECT_EQ(hub.clock_unit(), obs::ClockUnit::kTicks);
    EXPECT_EQ(hub.counter_snapshot().total(obs::Counter::kTasksExecuted),
              wl.flow.num_tasks());
  }
}

TEST(ObsMatrix, EverySupportsObsBackendRecordsAValidTrace) {
  // Appendix B's two properties on every backend a hub can trace, real or
  // virtual-time: the body spans of a sample-1 recorder respect the DAG,
  // never overlap a conflicting task and, on in_order backends, run each
  // worker's tasks in flow order.
  const std::uint32_t p = 3;
  std::vector<workloads::Workload> wls;
  wls.push_back(cholesky(5, p));
  wls.push_back(workloads::make_random_deps(
      {.num_tasks = 200, .num_data = 16, .task_cost = 200, .num_workers = p}));
  wls.push_back(workloads::make_chain(
      {.num_tasks = 64, .task_cost = 200, .num_workers = p}));
  for (const engine::Backend* backend : engine::Registry::instance().all()) {
    const engine::Capabilities& caps = backend->caps();
    if (!caps.supports_obs) continue;
    for (const workloads::Workload& wl : wls) {
      SCOPED_TRACE(std::string(backend->name()) + " on " + wl.name);
      const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
      obs::Hub hub(stf::trace_recorder(image.size()));
      engine::Launch launch;
      launch.workers = p;
      launch.obs = &hub;
      if (caps.needs_mapping) launch.mapping = wl.mapping(p);
      (void)backend->run(image, launch);
      const stf::Trace trace = testutil::recorded_trace(hub);
      EXPECT_EQ(trace.size(), image.size());
      const stf::ValidationResult v = trace.validate(
          wl.flow, stf::DependencyGraph(wl.flow), caps.in_order);
      EXPECT_TRUE(v.fully_checked()) << v.reason;
    }
  }
}

// ------------------------------------------------------------ simulators ---

TEST(ObsSim, DecentralizedEmitsTicksWithExactIdentity) {
  const std::uint32_t p = 4;
  auto wl = cholesky(5, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  sim::DecentralizedParams dp;
  dp.workers = p;
  dp.obs = &hub;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto rep = sim::simulate_decentralized(image, wl.mapping(p), dp);
  EXPECT_EQ(hub.clock_unit(), obs::ClockUnit::kTicks);
  ASSERT_EQ(hub.num_workers(), p);
  for (std::uint32_t w = 0; w < p; ++w) {
    const auto& ph = hub.phase_totals(w);
    const auto& b = rep.stats.workers[w].buckets;
    EXPECT_EQ(ph[kBodyIdx], b.task_ns);
    EXPECT_EQ(ph[kWaitIdx], b.idle_ns);
    EXPECT_EQ(ph[kMgmtIdx], b.runtime_ns);
    // The simulator's tick identity, straight from the phase totals.
    EXPECT_EQ(ph[kBodyIdx] + ph[kWaitIdx] + ph[kMgmtIdx], rep.makespan);
  }
  EXPECT_EQ(hub.counter_snapshot().total(obs::Counter::kTasksExecuted),
            wl.flow.num_tasks());
}

TEST(ObsSim, CentralizedMasterSlotMatches) {
  const std::uint32_t p = 3;
  auto wl = cholesky(5, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  sim::CentralizedParams cp;
  cp.workers = p;
  cp.obs = &hub;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto rep = sim::simulate_centralized(image, cp);
  ASSERT_EQ(hub.num_workers(), p + 1);
  for (std::uint32_t w = 0; w <= p; ++w) {
    const auto& ph = hub.phase_totals(w);
    const auto& b = rep.stats.workers[w].buckets;
    EXPECT_EQ(ph[kBodyIdx], b.task_ns) << "worker " << w;
    EXPECT_EQ(ph[kWaitIdx], b.idle_ns) << "worker " << w;
    EXPECT_EQ(ph[kMgmtIdx], b.runtime_ns) << "worker " << w;
  }
  EXPECT_EQ(hub.counter_snapshot().total(obs::Counter::kQueuePops),
            wl.flow.num_tasks());
}

// -------------------------------------------------------------- exporters --

TEST(ObsExport, PerfettoTraceIsStructurallySound) {
  auto wl = cholesky(4, 2);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  rt::Runtime eng(engine::Launch{.workers = 2,
                                 .collect_stats = true,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  eng.run(image, wl.mapping(2));
  std::ostringstream os;
  obs::write_perfetto_trace(hub, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"body\""), std::string::npos);
  EXPECT_NE(json.find("executing"), std::string::npos);
  long depth = 0;
  for (char c : json) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsExport, ObsJsonRoundTripsDecompositionBitForBit) {
  const std::uint32_t p = 2;
  auto wl = cholesky(4, p);
  obs::Hub hub;
  rt::Runtime eng(engine::Launch{.workers = p,
                                 .collect_stats = true,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto stats = eng.run(image, wl.mapping(p));
  const auto e = metrics::decompose_synthetic(stats.cumulative());

  obs::ObsJsonMeta meta;
  meta.engine = "rio";
  meta.workload = wl.name;
  meta.e_p = e.e_p;
  meta.e_r = e.e_r;
  std::ostringstream os;
  obs::write_obs_json(hub, stats, meta, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rio.obs.v1\""), std::string::npos);

  // %.17g round-trips doubles exactly: parsing the emitted e_p/e_r must
  // reproduce the computed values bit for bit.
  auto parse_after = [&](const std::string& key) {
    const std::size_t pos = json.find(key);
    EXPECT_NE(pos, std::string::npos) << key;
    return std::strtod(json.c_str() + pos + key.size(), nullptr);
  };
  EXPECT_EQ(parse_after("\"e_p\": "), e.e_p);
  EXPECT_EQ(parse_after("\"e_r\": "), e.e_r);
  EXPECT_EQ(parse_after("\"product\": "), e.e_p * e.e_r);
}

}  // namespace
