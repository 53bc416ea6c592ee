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
//   * obs.json round-trips the e_p / e_r decomposition bit-for-bit.
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
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "support/fault.hpp"
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
  rt::Runtime eng(rt::Config{.num_workers = 2,
                             .collect_stats = false,
                             .obs = &hub});
  eng.run(wl.flow, wl.mapping(2));
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
  rt::Runtime eng(rt::Config{.num_workers = 2});
  eng.run(wl.flow, wl.mapping(2));
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
  rt::Runtime eng(rt::Config{.num_workers = p,
                             .collect_stats = true,
                             .collect_trace = true,
                             .obs = &hub});
  const auto stats = eng.run(wl.flow, wl.mapping(p));

  // The trace's busy time and the ring's kBody spans record the SAME two
  // clock reads per task: equality is exact, not approximate.
  const auto busy = trace_busy(eng.trace(), p);
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
  rt::PrunedPlan plan(image, wl.mapping(p), p);
  rt::Runtime eng(rt::Config{.num_workers = p,
                             .collect_stats = true,
                             .collect_trace = true,
                             .obs = &hub});
  const auto stats = eng.run(image, plan);
  const auto busy = trace_busy(eng.trace(), p);
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
  coor::Runtime eng(coor::Config{.num_workers = p,
                                 .collect_stats = true,
                                 .collect_trace = true,
                                 .obs = &hub});
  const auto stats = eng.run(wl.flow);
  ASSERT_EQ(hub.num_workers(), p + 1);
  const auto busy = trace_busy(eng.trace(), p);
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
}

TEST(ObsReconcile, HybridAccumulatesAcrossPhases) {
  const std::uint32_t p = 2;
  auto wl = cholesky(4, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  hybrid::Runtime eng(hybrid::Config{.num_workers = p,
                                     .collect_stats = true,
                                     .obs = &hub});
  const auto stats = eng.run(
      wl.flow, [p](stf::TaskId t) -> std::optional<stf::WorkerId> {
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
  rt::Runtime eng(rt::Config{.num_workers = 2,
                             .collect_stats = false,
                             .retry = {.max_attempts = 3},
                             .fault = &injector,
                             .obs = &hub});
  eng.run(wl.flow, wl.mapping(2));
  const obs::CounterSnapshot snap = hub.counter_snapshot();
  EXPECT_EQ(snap.total(obs::Counter::kFaultsInjected),
            injector.injected_throws());
  EXPECT_EQ(snap.total(obs::Counter::kRetries), injector.injected_throws());
  EXPECT_EQ(snap.total(obs::Counter::kFaultsInjected), 2u);
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

// ------------------------------------------------------------ simulators ---

TEST(ObsSim, DecentralizedEmitsTicksWithExactIdentity) {
  const std::uint32_t p = 4;
  auto wl = cholesky(5, p);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  sim::DecentralizedParams dp;
  dp.workers = p;
  dp.obs = &hub;
  const auto rep = sim::simulate_decentralized(wl.flow, wl.mapping(p), dp);
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
  const auto rep = sim::simulate_centralized(wl.flow, cp);
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
  rt::Runtime eng(rt::Config{.num_workers = 2,
                             .collect_stats = true,
                             .obs = &hub});
  eng.run(wl.flow, wl.mapping(2));
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
  rt::Runtime eng(rt::Config{.num_workers = p,
                             .collect_stats = true,
                             .obs = &hub});
  const auto stats = eng.run(wl.flow, wl.mapping(p));
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
