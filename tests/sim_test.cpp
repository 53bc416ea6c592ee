// Tests for the discrete-event simulator: exact tau identities, hand-
// computed schedules, cost-model asymptotics (Section 3.3 equations (1)
// and (2)) and determinism.
#include <gtest/gtest.h>

#include "sim/sim.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;
using sim::CentralizedParams;
using sim::DecentralizedParams;

stf::TaskFlow independent_flow(std::uint64_t n, std::uint64_t cost) {
  workloads::IndependentSpec spec;
  spec.num_tasks = n;
  spec.task_cost = cost;
  spec.body = workloads::BodyKind::kNone;
  return std::move(workloads::make_independent(spec).flow);
}

// ------------------------------------------------------- exact identities --

TEST(SimRio, TauIdentityHoldsExactly) {
  auto flow = independent_flow(1000, 500);
  DecentralizedParams p;
  p.workers = 8;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto rep = sim::simulate_decentralized(image, rt::mapping::round_robin(8), p);
  for (const auto& w : rep.stats.workers)
    EXPECT_EQ(w.buckets.total(), rep.makespan) << "per-worker tau identity";
  EXPECT_EQ(rep.stats.cumulative().total(), rep.makespan * 8);
}

TEST(SimCoor, TauIdentityHoldsExactly) {
  auto flow = independent_flow(1000, 500);
  CentralizedParams p;
  p.workers = 7;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto rep = sim::simulate_centralized(image, p);
  ASSERT_EQ(rep.stats.workers.size(), 8u);  // 7 + master
  for (const auto& w : rep.stats.workers)
    EXPECT_EQ(w.buckets.total(), rep.makespan);
  EXPECT_EQ(rep.total_threads, 8u);
}

// --------------------------------------------------- hand-checked schedule -

TEST(SimRio, SingleWorkerChainIsSequential) {
  // 3-task RW chain, one worker, no skip cost (everything is its own).
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 3; ++i) flow.add_virtual(100, {stf::readwrite(d)});
  DecentralizedParams p;
  p.workers = 1;
  p.skip_per_task = 0;
  p.skip_per_access = 0;
  p.own_per_task = 10;
  p.own_per_access = 0;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto rep = sim::simulate_decentralized(image, rt::mapping::single(), p);
  // Each task: 10 overhead + 100 exec, no stalls: makespan = 330.
  EXPECT_EQ(rep.makespan, 330u);
  EXPECT_EQ(rep.stats.workers[0].buckets.task_ns, 300u);
  EXPECT_EQ(rep.stats.workers[0].buckets.runtime_ns, 30u);
  EXPECT_EQ(rep.stats.workers[0].buckets.idle_ns, 0u);
}

TEST(SimRio, CrossWorkerChainStalls) {
  // Two tasks RW on the same data mapped to different workers: worker 1
  // must stall until worker 0 finishes.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  flow.add_virtual(100, {stf::readwrite(d)});
  flow.add_virtual(100, {stf::readwrite(d)});
  DecentralizedParams p;
  p.workers = 2;
  p.skip_per_task = 1;
  p.skip_per_access = 0;
  p.own_per_task = 5;
  p.own_per_access = 0;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto rep = sim::simulate_decentralized(image, rt::mapping::round_robin(2), p);
  // Worker0: own(5) + exec(100) -> finish t0 at 105.
  // Worker1: skip t0 (1) + own(5) = ready at 6, stalls until 105, exec 100
  //          -> finish 205. Worker0 then skips t1 at 106.
  EXPECT_EQ(rep.makespan, 205u);
  EXPECT_EQ(rep.stats.workers[1].buckets.idle_ns, 99u);
  EXPECT_EQ(rep.stats.workers[1].waits, 1u);
}

TEST(SimCoor, MasterBoundWhenTasksTiny) {
  // Cost model (1): with tiny tasks the makespan approaches n * t_master.
  auto flow = independent_flow(1000, 1);
  CentralizedParams p;
  p.workers = 8;
  p.master_per_task = 1000;
  p.master_per_access = 0;
  p.worker_pop = 10;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto rep = sim::simulate_centralized(image, p);
  EXPECT_GE(rep.makespan, 1000u * 1000u);
  EXPECT_LE(rep.makespan, 1000u * 1000u + 2000u);
}

TEST(SimCoor, WorkerBoundWhenTasksLarge) {
  // Cost model (1) other branch: makespan ~= n * t(g) / w.
  auto flow = independent_flow(64, 100000);
  CentralizedParams p;
  p.workers = 8;
  p.master_per_task = 100;
  p.master_per_access = 0;
  p.worker_pop = 10;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto rep = sim::simulate_centralized(image, p);
  const std::uint64_t ideal = 64ull * 100000 / 8;
  EXPECT_GE(rep.makespan, ideal);
  EXPECT_LE(rep.makespan, ideal + ideal / 10);
}

TEST(SimRio, DecentralizedAdditiveCostModel) {
  // Cost model (2): t_p = n * t_r + n * t(g) / w. Even with large tasks the
  // unrolling term stays (additive, not max) — every worker walks all n.
  const std::uint64_t n = 1000;
  auto flow = independent_flow(n, 0);
  DecentralizedParams p;
  p.workers = 4;
  p.skip_per_task = 10;
  p.skip_per_access = 0;
  p.own_per_task = 10;
  p.own_per_access = 0;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto rep = sim::simulate_decentralized(image, rt::mapping::round_robin(4), p);
  // Every worker pays ~n * 10 unrolling regardless of execution.
  EXPECT_GE(rep.makespan, n * 10);
  EXPECT_LE(rep.makespan, n * 10 + n);
}

// ------------------------------------------------------------- asymptotics -

TEST(SimComparison, RioWinsOnFineTasksCoorWinsPipelined) {
  // The paper's headline crossover (Figures 6/8): with default calibrated
  // costs, RIO beats the centralized model for fine tasks; for coarse
  // tasks both are near-ideal but centralized loses nothing.
  const std::uint64_t n = 4096;
  DecentralizedParams dp;  // defaults: 24 workers
  CentralizedParams cp;    // defaults: 23 workers + master

  auto fine = independent_flow(n, 1'000);     // ~1 us tasks
  auto coarse = independent_flow(n, 10'000'000);  // ~10 ms tasks

  const stf::FlowImage fine_image = stf::FlowImage::compile(fine);
  const auto rio_fine =
      sim::simulate_decentralized(fine_image, rt::mapping::round_robin(24), dp);
  const auto coor_fine = sim::simulate_centralized(fine_image, cp);
  EXPECT_LT(rio_fine.makespan, coor_fine.makespan)
      << "RIO must win on fine-grained tasks";

  const stf::FlowImage coarse_image = stf::FlowImage::compile(coarse);
  const auto rio_coarse =
      sim::simulate_decentralized(coarse_image, rt::mapping::round_robin(24),
                                  dp);
  const auto coor_coarse = sim::simulate_centralized(coarse_image, cp);
  // Both within a few percent of ideal for coarse tasks.
  stf::DependencyGraph g_coarse(coarse);
  const auto ideal = sim::ideal_makespan(coarse, g_coarse, 24);
  EXPECT_LT(static_cast<double>(rio_coarse.makespan), 1.05 * static_cast<double>(ideal));
  EXPECT_LT(static_cast<double>(coor_coarse.makespan), 1.10 * static_cast<double>(ideal));
}

TEST(SimRio, PruningRemovesUnrollOverhead) {
  const std::uint64_t n = 10000;
  auto flow = independent_flow(n, 100);
  DecentralizedParams full;
  full.workers = 16;
  DecentralizedParams pruned = full;
  pruned.pruned = true;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto rep_full =
      sim::simulate_decentralized(image, rt::mapping::round_robin(16), full);
  const auto rep_pruned =
      sim::simulate_decentralized(image, rt::mapping::round_robin(16), pruned);
  EXPECT_LT(rep_pruned.makespan, rep_full.makespan);
  // Pruned runtime bucket excludes all skip costs.
  EXPECT_LT(rep_pruned.stats.cumulative().runtime_ns,
            rep_full.stats.cumulative().runtime_ns);
}

TEST(SimRio, UnrollOverheadGrowsWithWorkers) {
  // Figure 7: fixed tasks *per worker*; decentralized total time grows with
  // worker count because everyone unrolls everyone's tasks.
  std::uint64_t prev_makespan = 0;
  for (std::uint32_t w : {4u, 16u, 64u}) {
    auto flow = independent_flow(512ull * w, 100);
    DecentralizedParams p;
    p.workers = w;
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    const auto rep =
        sim::simulate_decentralized(image, rt::mapping::round_robin(w), p);
    EXPECT_GT(rep.makespan, prev_makespan);
    prev_makespan = rep.makespan;
  }
}

// ------------------------------------------------------------ determinism --

TEST(Sim, DeterministicAcrossRuns) {
  workloads::RandomDepsSpec spec;
  spec.num_tasks = 500;
  spec.body = workloads::BodyKind::kNone;
  spec.task_cost = 700;
  auto wl1 = workloads::make_random_deps(spec);
  auto wl2 = workloads::make_random_deps(spec);
  DecentralizedParams dp;
  dp.workers = 6;
  const stf::FlowImage wl1_image = stf::FlowImage::compile(wl1.flow);
  const auto a =
      sim::simulate_decentralized(wl1_image, rt::mapping::round_robin(6), dp);
  const stf::FlowImage wl2_image = stf::FlowImage::compile(wl2.flow);
  const auto b =
      sim::simulate_decentralized(wl2_image, rt::mapping::round_robin(6), dp);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stats.cumulative().idle_ns, b.stats.cumulative().idle_ns);

  CentralizedParams cp;
  const auto c = sim::simulate_centralized(wl1_image, cp);
  const auto d = sim::simulate_centralized(wl2_image, cp);
  EXPECT_EQ(c.makespan, d.makespan);
}

// -------------------------------------------------------- dependency sim ---

TEST(SimBoth, LuDagRespectsCriticalPath) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 6;
  spec.col_tiles = 6;
  spec.task_cost = 10000;
  spec.body = workloads::BodyKind::kNone;
  spec.num_workers = 8;
  auto wl = workloads::make_lu_dag(spec);
  stf::DependencyGraph g(wl.flow);
  const auto ideal = sim::ideal_makespan(wl.flow, g, 8);

  DecentralizedParams dp;
  dp.workers = 8;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto rio = sim::simulate_decentralized(image, wl.mapping(8), dp);
  CentralizedParams cp;
  cp.workers = 8;
  const auto coor = sim::simulate_centralized(image, cp);
  EXPECT_GE(rio.makespan, ideal);
  EXPECT_GE(coor.makespan, ideal);
}

TEST(Sim, IdealMakespanBounds) {
  auto flow = independent_flow(100, 10);
  stf::DependencyGraph g(flow);
  EXPECT_EQ(sim::ideal_makespan(flow, g, 10), 100u);  // perfectly balanced
  EXPECT_EQ(sim::ideal_makespan(flow, g, 1), 1000u);
}


// ------------------------------------------------- heterogeneity models ----

TEST(SimHeterogeneous, StragglerSlowsStaticMappingProportionally) {
  auto flow = independent_flow(240, 100000);
  DecentralizedParams dp;
  dp.workers = 4;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto base =
      sim::simulate_decentralized(image, rt::mapping::round_robin(4), dp);
  dp.worker_speed = {0.5, 1.0, 1.0, 1.0};
  const auto slow =
      sim::simulate_decentralized(image, rt::mapping::round_robin(4), dp);
  // The straggler's share takes 2x: makespan doubles (round-robin gives it
  // a fixed 1/4 of the work).
  EXPECT_NEAR(static_cast<double>(slow.makespan) /
                  static_cast<double>(base.makespan),
              2.0, 0.05);
}

TEST(SimHeterogeneous, DynamicSchedulerRoutesAroundStraggler) {
  auto flow = independent_flow(240, 100000);
  CentralizedParams cp;
  cp.workers = 4;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto base = sim::simulate_centralized(image, cp);
  cp.worker_speed = {0.5, 1.0, 1.0, 1.0};
  const auto slow = sim::simulate_centralized(image, cp);
  // List scheduling hands the straggler fewer tasks: far below 2x.
  EXPECT_LT(static_cast<double>(slow.makespan),
            1.3 * static_cast<double>(base.makespan));
}

TEST(SimLatency, CrossWorkerEdgePaysOnlyWhenCut) {
  // Two-task chain: same worker -> no latency; different workers -> +lat.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  flow.add_virtual(100, {stf::readwrite(d)});
  flow.add_virtual(100, {stf::readwrite(d)});
  DecentralizedParams dp;
  dp.workers = 2;
  dp.skip_per_task = 0;
  dp.skip_per_access = 0;
  dp.own_per_task = 0;
  dp.own_per_access = 0;
  dp.cross_worker_latency = 555;

  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto same =
      sim::simulate_decentralized(image, rt::mapping::single(), dp);
  const auto cross =
      sim::simulate_decentralized(image, rt::mapping::round_robin(2), dp);
  EXPECT_EQ(same.makespan, 200u);
  EXPECT_EQ(cross.makespan, 200u + 555u);
}

TEST(SimLatency, CentralizedPaysOnEveryEdge) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 4; ++i) flow.add_virtual(100, {stf::readwrite(d)});
  CentralizedParams cp;
  cp.workers = 2;
  cp.master_per_task = 1;
  cp.master_per_access = 0;
  cp.worker_pop = 0;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto base = sim::simulate_centralized(image, cp);
  cp.cross_worker_latency = 1000;
  const auto lat = sim::simulate_centralized(image, cp);
  // Three chain edges, each + 1000.
  EXPECT_EQ(lat.makespan - base.makespan, 3000u);
}

// ------------------------------------------------------------ fault model -

TEST(SimFaults, InjectedFaultsAreDeterministicAndCosted) {
  // Same plan + seed => identical makespan and counters; a faulted run is
  // strictly slower than a clean one (each retry pays cost + backoff, each
  // stall pays its window in virtual time).
  auto flow = independent_flow(400, 1000);
  DecentralizedParams p;
  p.workers = 4;
  p.faults.seed = 7;
  p.faults.throw_rate = 0.1;
  p.faults.stall_rate = 0.05;
  p.faults.stall_ns = 2000;
  p.retry.max_attempts = 3;
  p.retry.backoff_ns = 50;

  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto a =
      sim::simulate_decentralized(image, rt::mapping::round_robin(4), p);
  const auto b =
      sim::simulate_decentralized(image, rt::mapping::round_robin(4), p);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.injected_throws, b.injected_throws);
  EXPECT_EQ(a.injected_stalls, b.injected_stalls);
  EXPECT_EQ(a.retried_tasks, b.retried_tasks);
  EXPECT_GT(a.injected_throws, 0u);
  EXPECT_GT(a.injected_stalls, 0u);
  EXPECT_GT(a.retried_tasks, 0u);

  DecentralizedParams clean = p;
  clean.faults = {};
  const auto c =
      sim::simulate_decentralized(image, rt::mapping::round_robin(4), clean);
  EXPECT_GT(a.makespan, c.makespan);
  EXPECT_EQ(c.injected_throws, 0u);
}

TEST(SimFaults, CentralizedCountsExhaustedTasks) {
  // retry budget 1 => every injected throw is terminal in the fault model;
  // the simulator records it and keeps simulating (virtual time has no
  // cancellation).
  auto flow = independent_flow(300, 500);
  CentralizedParams p;
  p.workers = 3;
  p.faults.seed = 11;
  p.faults.throw_rate = 0.2;
  p.retry.max_attempts = 1;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto rep = sim::simulate_centralized(image, p);
  EXPECT_GT(rep.injected_throws, 0u);
  EXPECT_EQ(rep.failed_tasks, rep.injected_throws);
  EXPECT_EQ(rep.retried_tasks, 0u);
}

}  // namespace
