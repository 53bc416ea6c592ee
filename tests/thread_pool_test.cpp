// Tests for the persistent worker pool and its integration with the
// execution engines.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "coor/coor.hpp"
#include "hybrid/hybrid.hpp"
#include "rio/rio.hpp"
#include "support/thread_pool.hpp"
#include "stf/sequential.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;
using support::ThreadPool;

TEST(ThreadPool, RunsJobOnEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<std::uint32_t> mask{0};
  pool.run([&](std::uint32_t w) { mask.fetch_or(1u << w); });
  EXPECT_EQ(mask.load(), 0b1111u);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPool, SequentialRunsReuseThreads) {
  ThreadPool pool(3);
  std::set<std::thread::id> ids_first, ids_second;
  std::mutex mu;
  pool.run([&](std::uint32_t) {
    std::lock_guard lock(mu);
    ids_first.insert(std::this_thread::get_id());
  });
  pool.run([&](std::uint32_t) {
    std::lock_guard lock(mu);
    ids_second.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids_first, ids_second);
  EXPECT_EQ(ids_first.size(), 3u);
}

TEST(ThreadPool, ManyGenerationsDoNotMissWakeups) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int i = 0; i < 500; ++i)
    pool.run([&](std::uint32_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, RunParallelFallsBackToSpawn) {
  std::atomic<std::uint32_t> mask{0};
  support::run_parallel(nullptr, 3,
                        [&](std::uint32_t w) { mask.fetch_or(1u << w); });
  EXPECT_EQ(mask.load(), 0b111u);
}

TEST(ThreadPool, RunParallelUsesSubsetOfLargerPool) {
  ThreadPool pool(6);
  std::atomic<std::uint32_t> mask{0};
  support::run_parallel(&pool, 2,
                        [&](std::uint32_t w) { mask.fetch_or(1u << w); });
  EXPECT_EQ(mask.load(), 0b11u);
}

// ---------------------------------------------------- engine integration ---

TEST(PooledEngines, RioPooledMatchesSpawned) {
  auto make = [] {
    stf::TaskFlow flow;
    auto d = flow.create_data<std::uint64_t>("d");
    for (int i = 0; i < 50; ++i)
      flow.add("inc", [d](stf::TaskContext& ctx) { ctx.scalar(d) += 3; },
               {stf::readwrite(d)});
    return flow;
  };
  auto f1 = make();
  rt::Runtime spawned(engine::Launch{.workers = 3});
  spawned.run(f1, rt::mapping::round_robin(3));

  auto f2 = make();
  ThreadPool pool(3);
  rt::Runtime pooled(engine::Launch{.workers = 3});
  pooled.attach_pool(&pool);
  for (int rep = 0; rep < 3; ++rep) {  // repeated runs on one pool
    auto f = make();
    pooled.run(f, rt::mapping::round_robin(3));
    EXPECT_EQ(*f.registry().typed<std::uint64_t>(
                  stf::DataHandle<std::uint64_t>{0}),
              150u);
  }
  pooled.run(f2, rt::mapping::round_robin(3));
  EXPECT_EQ(*f1.registry().typed<std::uint64_t>(
                stf::DataHandle<std::uint64_t>{0}),
            *f2.registry().typed<std::uint64_t>(
                stf::DataHandle<std::uint64_t>{0}));
}

TEST(PooledEngines, CoorPooledExecutesAll) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 4;
  spec.task_cost = 50;
  auto wl = workloads::make_lu_dag(spec);
  ThreadPool pool(4);  // 3 workers + master
  coor::Runtime rt(engine::Launch{.workers = 3, .enable_guard = true});
  rt.attach_pool(&pool);
  for (int rep = 0; rep < 3; ++rep) {
    const auto stats = rt.run(wl.flow);
    EXPECT_EQ(stats.tasks_executed(), wl.flow.num_tasks());
  }
}

TEST(PooledEngines, HybridWithAndWithoutPoolAgree) {
  // The first run on a hybrid::Runtime spawns its phase pool; the second
  // reuses it. Both must match a fresh sequential HPL run bit for bit,
  // pivots included.
  auto make = [] {
    workloads::TiledMatrix a(3, 8);
    a.fill_random(44);
    return a;
  };
  auto ref = make();
  auto h_ref = workloads::make_hpl_lu(ref, 2);
  stf::SequentialExecutor{}.run(h_ref.workload.flow);

  hybrid::Runtime rt(engine::Launch{.workers = 2});
  for (int rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(rep == 0 ? "spawning run" : "pool-reusing run");
    auto a = make();
    auto h = workloads::make_hpl_lu(a, 2);
    rt.run(h.workload.flow, h.partial_mapping());
    EXPECT_EQ(a.max_abs_diff(ref), 0.0);
    EXPECT_EQ(*h.perm, *h_ref.perm);
  }
}

}  // namespace
