// Tests for the mini Task Bench workload family.
#include <gtest/gtest.h>

#include <cstring>

#include "coor/coor.hpp"
#include "rio/rio.hpp"
#include "stf/stf.hpp"
#include "workloads/taskbench.hpp"

namespace {

using namespace rio;
using namespace rio::workloads;

TaskBenchSpec spec_for(TaskBenchPattern p, std::uint32_t width = 8,
                       std::uint32_t steps = 4) {
  TaskBenchSpec s;
  s.pattern = p;
  s.width = width;
  s.steps = steps;
  s.body = BodyKind::kNone;
  return s;
}

// ------------------------------------------------------------ dep shapes ---

TEST(TaskBenchDeps, FirstStepHasNone) {
  for (auto p : kAllTaskBenchPatterns)
    EXPECT_TRUE(taskbench_deps(spec_for(p), 0, 3).empty())
        << to_string(p);
}

TEST(TaskBenchDeps, TrivialAlwaysEmpty) {
  const auto s = spec_for(TaskBenchPattern::kTrivial);
  for (std::uint32_t t = 1; t < 4; ++t)
    for (std::uint32_t d = 0; d < 8; ++d)
      EXPECT_TRUE(taskbench_deps(s, t, d).empty());
}

TEST(TaskBenchDeps, NoCommIsSelfOnly) {
  const auto s = spec_for(TaskBenchPattern::kNoComm);
  EXPECT_EQ(taskbench_deps(s, 2, 5), (std::vector<std::uint32_t>{5}));
}

TEST(TaskBenchDeps, StencilClampsBorders) {
  const auto s = spec_for(TaskBenchPattern::kStencil1D);
  EXPECT_EQ(taskbench_deps(s, 1, 0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(taskbench_deps(s, 1, 7), (std::vector<std::uint32_t>{6, 7}));
  EXPECT_EQ(taskbench_deps(s, 1, 3), (std::vector<std::uint32_t>{2, 3, 4}));
}

TEST(TaskBenchDeps, PeriodicWraps) {
  const auto s = spec_for(TaskBenchPattern::kStencil1DPeriodic);
  EXPECT_EQ(taskbench_deps(s, 1, 0), (std::vector<std::uint32_t>{0, 1, 7}));
}

TEST(TaskBenchDeps, FftButterflyPartners) {
  const auto s = spec_for(TaskBenchPattern::kFft, 8);
  // width 8 -> 3 levels; step 1 uses stride 1, step 2 stride 2, step 3
  // stride 4, step 4 wraps to stride 1.
  EXPECT_EQ(taskbench_deps(s, 1, 0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(taskbench_deps(s, 2, 0), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(taskbench_deps(s, 3, 0), (std::vector<std::uint32_t>{0, 4}));
  EXPECT_EQ(taskbench_deps(s, 4, 0), (std::vector<std::uint32_t>{0, 1}));
}

TEST(TaskBenchDeps, AllToAllIsFullRow) {
  const auto s = spec_for(TaskBenchPattern::kAllToAll, 5);
  EXPECT_EQ(taskbench_deps(s, 1, 2).size(), 5u);
}

TEST(TaskBenchDeps, SpreadHasSelfPlusStrides) {
  const auto s = spec_for(TaskBenchPattern::kSpread, 16);
  const auto deps = taskbench_deps(s, 2, 1);
  // self=1, offsets 2,4,6 -> {1,3,5,7}
  EXPECT_EQ(deps, (std::vector<std::uint32_t>{1, 3, 5, 7}));
}

// -------------------------------------------------------------- workload ---

TEST(TaskBenchFlow, GridSizeAndOwners) {
  auto s = spec_for(TaskBenchPattern::kStencil1D, 6, 5);
  s.num_workers = 3;
  auto wl = make_taskbench(s);
  EXPECT_EQ(wl.flow.num_tasks(), 30u);
  EXPECT_EQ(wl.flow.num_data(), 12u);  // double-buffered width
  ASSERT_EQ(wl.owners.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_EQ(wl.owners[i], (i % 6) % 3);  // point-sharded mapping
}

TEST(TaskBenchFlow, DagWidthMatchesPattern) {
  // no_comm: width independent chains -> max ready width == width.
  auto wl = make_taskbench(spec_for(TaskBenchPattern::kNoComm, 8, 4));
  stf::DependencyGraph g(wl.flow);
  EXPECT_EQ(g.max_ready_width(), 8u);
  // all_to_all still exposes width parallelism per step, but the critical
  // path grows with steps.
  auto wl2 = make_taskbench(spec_for(TaskBenchPattern::kAllToAll, 8, 4));
  stf::DependencyGraph g2(wl2.flow);
  EXPECT_EQ(g2.critical_path_cost(wl2.flow), 4u * 1000u);
}

// Executable flows: chase values through the grid and compare engines.
class TaskBenchEngines
    : public ::testing::TestWithParam<TaskBenchPattern> {};

TEST_P(TaskBenchEngines, RioAndCoorMatchSequential) {
  auto make = [&] {
    TaskBenchSpec s = spec_for(GetParam(), 8, 6);
    s.num_workers = 3;
    auto wl = make_taskbench(s);
    // Give every task an order-sensitive body over its declared accesses.
    stf::TaskFlow rebuilt;
    std::vector<stf::DataHandle<std::uint64_t>> handles;
    for (std::uint32_t d = 0; d < wl.flow.num_data(); ++d)
      handles.push_back(
          rebuilt.create_data<std::uint64_t>("h" + std::to_string(d)));
    for (const stf::Task& t : wl.flow.tasks()) {
      stf::AccessList acc = t.accesses;
      std::vector<stf::DataId> reads;
      stf::DataId written = stf::kInvalidData;
      for (const auto& a : t.accesses)
        if (is_write(a.mode))
          written = a.data;
        else
          reads.push_back(a.data);
      const stf::TaskId id = t.id;
      rebuilt.add(t.name,
                  [reads, written, id](stf::TaskContext& ctx) {
                    std::uint64_t v = id * 2654435761u + 1;
                    for (stf::DataId r : reads)
                      v += *static_cast<const std::uint64_t*>(
                          ctx.registry().raw(r));
                    *static_cast<std::uint64_t*>(
                        ctx.registry().raw(written)) = v;
                  },
                  std::move(acc), t.cost);
    }
    workloads::Workload out;
    out.flow = std::move(rebuilt);
    out.owners = wl.owners;
    return out;
  };

  auto oracle = make();
  stf::SequentialExecutor{}.run(oracle.flow);

  auto wl_rio = make();
  rt::Runtime rio_rt(engine::Launch{.workers = 3, .enable_guard = true});
  rio_rt.run(wl_rio.flow, wl_rio.mapping(3));

  auto wl_coor = make();
  coor::Runtime coor_rt(engine::Launch{.workers = 3, .enable_guard = true});
  coor_rt.run(wl_coor.flow);

  for (stf::DataId d = 0; d < oracle.flow.num_data(); ++d) {
    EXPECT_EQ(std::memcmp(wl_rio.flow.registry().raw(d),
                          oracle.flow.registry().raw(d), sizeof(std::uint64_t)),
              0)
        << "rio, object " << d;
    EXPECT_EQ(std::memcmp(wl_coor.flow.registry().raw(d),
                          oracle.flow.registry().raw(d), sizeof(std::uint64_t)),
              0)
        << "coor, object " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, TaskBenchEngines,
                         ::testing::ValuesIn(kAllTaskBenchPatterns),
                         [](const auto& i) {
                           return std::string(to_string(i.param));
                         });

}  // namespace
