// Tests for critical-path priorities: bottom levels, the prioritized ready
// queue, and the kPriority scheduler end to end.
#include <gtest/gtest.h>

#include "coor/coor.hpp"
#include "recorded_trace.hpp"
#include "stf/stf.hpp"
#include <array>
#include <atomic>
#include "workloads/workloads.hpp"

namespace {

using namespace rio;

// ---------------------------------------------------------- bottom levels --

TEST(BottomLevels, ChainDecreasesTowardsSink) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 4; ++i) flow.add_virtual(10, {stf::readwrite(d)});
  stf::DependencyGraph g(flow);
  const auto levels = g.bottom_levels(flow);
  EXPECT_EQ(levels, (std::vector<std::uint64_t>{40, 30, 20, 10}));
}

TEST(BottomLevels, IndependentTasksAllEqual) {
  stf::TaskFlow flow;
  for (int i = 0; i < 5; ++i) flow.add_virtual(7, {});
  stf::DependencyGraph g(flow);
  for (auto v : g.bottom_levels(flow)) EXPECT_EQ(v, 7u);
}

TEST(BottomLevels, RootOfDiamondSeesLongestBranch) {
  // t0 -> {t1 (cost 100), t2 (cost 1)} -> t3.
  stf::TaskFlow flow;
  auto a = flow.create_data<int>("a");
  auto b = flow.create_data<int>("b");
  auto c = flow.create_data<int>("c");
  flow.add_virtual(1, {stf::write(a)});                      // t0
  flow.add_virtual(100, {stf::read(a), stf::write(b)});      // t1
  flow.add_virtual(1, {stf::read(a), stf::write(c)});        // t2
  flow.add_virtual(1, {stf::read(b), stf::read(c)});         // t3
  stf::DependencyGraph g(flow);
  const auto levels = g.bottom_levels(flow);
  EXPECT_EQ(levels[0], 102u);  // 1 + 100 + 1
  EXPECT_EQ(levels[1], 101u);
  EXPECT_EQ(levels[2], 2u);
  EXPECT_EQ(levels[3], 1u);
}

TEST(BottomLevels, MatchesCriticalPathAtRoots) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 4;
  spec.task_cost = 10;
  auto wl = workloads::make_lu_dag(spec);
  stf::DependencyGraph g(wl.flow);
  const auto levels = g.bottom_levels(wl.flow);
  std::uint64_t best = 0;
  for (auto v : levels) best = std::max(best, v);
  EXPECT_EQ(best, g.critical_path_cost(wl.flow));
}

// ------------------------------------------------------- priority queue ----

TEST(PriorityQueue, PopsHighestPriorityFirst) {
  coor::ReadyQueue q(/*prioritized=*/true);
  q.push(1, false, 5);
  q.push(2, false, 50);
  q.push(3, false, 10);
  EXPECT_EQ(q.pop().value(), 2u);
  EXPECT_EQ(q.pop().value(), 3u);
  EXPECT_EQ(q.pop().value(), 1u);
}

TEST(PriorityQueue, FifoAmongEqualPriorities) {
  coor::ReadyQueue q(true);
  for (stf::TaskId t = 0; t < 5; ++t) q.push(t, false, 7);
  for (stf::TaskId t = 0; t < 5; ++t) EXPECT_EQ(q.pop().value(), t);
}

TEST(PriorityQueue, StealGetsBestEntryToo) {
  coor::ReadyQueue q(true);
  q.push(1, false, 1);
  q.push(2, false, 9);
  EXPECT_EQ(q.try_steal().value(), 2u);
}

TEST(PriorityQueue, CloseDrains) {
  coor::ReadyQueue q(true);
  q.push(4, false, 0);
  q.close();
  EXPECT_EQ(q.pop().value(), 4u);
  EXPECT_FALSE(q.pop().has_value());
}

// --------------------------------------------------------- end to end ------

TEST(PriorityScheduler, ExecutesAllAndRespectsDeps) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 5;
  spec.col_tiles = 5;
  spec.task_cost = 100;
  auto wl = workloads::make_lu_dag(spec);
  stf::DependencyGraph g(wl.flow);
  const auto levels = g.bottom_levels(wl.flow);
  for (stf::TaskId t = 0; t < wl.flow.num_tasks(); ++t)
    wl.flow.set_priority(t, static_cast<std::int32_t>(levels[t]));

  obs::Hub hub(stf::trace_recorder(wl.flow.num_tasks()));
  coor::Runtime rt(engine::Launch{.workers = 3,
                                  .scheduler = coor::SchedulerKind::kPriority,
                                  .enable_guard = true,
                                  .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto stats = rt.run(image);
  EXPECT_EQ(stats.tasks_executed(), wl.flow.num_tasks());
  const auto v = testutil::recorded_trace(hub).validate(wl.flow, g, false);
  EXPECT_TRUE(v.ok()) << v.reason;
}

TEST(PriorityScheduler, CriticalTaskJumpsTheQueue) {
  // Single worker. Task 0 is long, so tasks 1..9 (independent, no data)
  // pile up in the ready pool while it runs; task 9 carries the highest
  // priority and must be popped right after task 0 despite being
  // submitted last.
  stf::TaskFlow flow;
  std::atomic<std::uint64_t> counter{0};
  std::array<std::uint64_t, 10> slot{};
  for (std::uint64_t i = 0; i < 10; ++i) {
    flow.add("t" + std::to_string(i),
             [&counter, &slot, i](stf::TaskContext&) {
               if (i == 0) workloads::counter_kernel(20'000'000);  // ~10 ms
               slot[i] = counter.fetch_add(1);
             },
             {});
    flow.set_priority(i, i == 9 ? 100 : 0);
  }
  coor::Runtime rt(engine::Launch{.workers = 1,
                                  .scheduler = coor::SchedulerKind::kPriority});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt.run(image);
  // Task 9 runs first or second (the worker may have grabbed task 0 before
  // task 9 was discovered); every plain task except possibly task 0 runs
  // after it.
  EXPECT_LE(slot[9], 1u) << "high-priority task must jump the queue";
  for (std::uint64_t i = 1; i < 9; ++i) EXPECT_GT(slot[i], slot[9]) << i;
}

}  // namespace
