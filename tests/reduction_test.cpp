// Tests for the commuting-reduction access mode (the SuperGlue-style
// versioning extension the paper cites in Section 3.4): dependency
// semantics, engine correctness, and the parallelism it unlocks.
#include <gtest/gtest.h>

#include <numeric>

#include "coor/coor.hpp"
#include "modelcheck/spec.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "stf/stf.hpp"

namespace {

using namespace rio;
using namespace rio::stf;

// ----------------------------------------------------------- semantics -----

TEST(AccessModeReduction, Classification) {
  EXPECT_TRUE(is_write(AccessMode::kReduction));
  EXPECT_TRUE(is_read(AccessMode::kReduction));
  EXPECT_TRUE(is_reduction(AccessMode::kReduction));
  EXPECT_FALSE(is_reduction(AccessMode::kReadWrite));
  EXPECT_STREQ(to_string(AccessMode::kReduction), "RED");
}

TaskFlow reduction_flow(const std::vector<AccessMode>& modes) {
  TaskFlow flow;
  auto d = flow.create_data<std::uint64_t>("acc");
  for (AccessMode m : modes) flow.add_virtual(1, {Access{d.id, m}});
  return flow;
}

TEST(ReductionDeps, RunMembersCarryNoMutualEdges) {
  auto flow = reduction_flow({AccessMode::kWrite, AccessMode::kReduction,
                              AccessMode::kReduction, AccessMode::kReduction});
  DependencyGraph g(flow);
  // Each reduction depends only on the initial write.
  for (TaskId t = 1; t <= 3; ++t)
    EXPECT_EQ(g.predecessors(t), (std::vector<TaskId>{0})) << t;
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_ready_width(), 3u);  // all three commute
}

TEST(ReductionDeps, ReaderAfterRunDependsOnAllMembers) {
  auto flow = reduction_flow({AccessMode::kReduction, AccessMode::kReduction,
                              AccessMode::kRead});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(2), (std::vector<TaskId>{0, 1}));
}

TEST(ReductionDeps, WriteAfterRunDependsOnAllMembers) {
  auto flow = reduction_flow({AccessMode::kReduction, AccessMode::kReduction,
                              AccessMode::kWrite});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(2), (std::vector<TaskId>{0, 1}));
}

TEST(ReductionDeps, ReadSplitsTheRun) {
  // RED RED R RED: the last reduction must wait for the read (it writes),
  // and forms a NEW run.
  auto flow = reduction_flow({AccessMode::kReduction, AccessMode::kReduction,
                              AccessMode::kRead, AccessMode::kReduction});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(2), (std::vector<TaskId>{0, 1}));
  // New run depends on the read AND the previous run's members.
  EXPECT_EQ(g.predecessors(3), (std::vector<TaskId>{0, 1, 2}));
}

TEST(ReductionDeps, WriteResetsEverything) {
  auto flow = reduction_flow({AccessMode::kReduction, AccessMode::kWrite,
                              AccessMode::kReduction});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(1), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.predecessors(2), (std::vector<TaskId>{1}));
}

TEST(ReductionDeps, CriticalPathCollapsesVsReadWriteChain) {
  // 64 accumulating tasks: as RW they form a chain of length 64; as RED
  // they form one parallel run of depth 1.
  auto chain = reduction_flow(std::vector<AccessMode>(64, AccessMode::kReadWrite));
  auto run = reduction_flow(std::vector<AccessMode>(64, AccessMode::kReduction));
  DependencyGraph gc(chain), gr(run);
  EXPECT_EQ(gc.critical_path_cost(chain), 64u);
  EXPECT_EQ(gr.critical_path_cost(run), 1u);
}

// ------------------------------------------------------------- engines -----

/// num_tasks tasks each adding a distinct value into one of `bins`
/// accumulators via a reduction access; +1 final reader per bin.
/// Integer addition commutes exactly, so every legal execution produces
/// the same bytes.
TaskFlow histogram_flow(std::uint32_t num_tasks, std::uint32_t bins) {
  TaskFlow flow;
  std::vector<DataHandle<std::uint64_t>> acc;
  for (std::uint32_t b = 0; b < bins; ++b)
    acc.push_back(flow.create_data<std::uint64_t>("bin" + std::to_string(b)));
  auto total = flow.create_data<std::uint64_t>("total");
  for (std::uint32_t t = 0; t < num_tasks; ++t) {
    const auto h = acc[t % bins];
    flow.add("add" + std::to_string(t),
             [h, t](TaskContext& ctx) { ctx.scalar(h) += (t + 1) * 7; },
             {reduce(h)});
  }
  AccessList finale;
  for (std::uint32_t b = 0; b < bins; ++b) finale.push_back(read(acc[b]));
  finale.push_back(write(total));
  flow.add("sum",
           [acc, total](TaskContext& ctx) {
             std::uint64_t s = 0;
             for (auto h : acc) s += ctx.scalar(h, AccessMode::kRead);
             ctx.scalar(total) = s;
           },
           std::move(finale));
  return flow;
}

std::uint64_t expected_total(std::uint32_t num_tasks) {
  std::uint64_t s = 0;
  for (std::uint32_t t = 0; t < num_tasks; ++t) s += (t + 1) * 7;
  return s;
}

TEST(ReductionEngines, SequentialIsTheOracle) {
  auto flow = histogram_flow(100, 4);
  SequentialExecutor{}.run(flow);
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(
                DataHandle<std::uint64_t>{4}),
            expected_total(100));
}

class ReductionCoor : public ::testing::TestWithParam<coor::SchedulerKind> {};

TEST_P(ReductionCoor, HistogramMatchesAndTraceValidates) {
  auto flow = histogram_flow(200, 4);
  coor::Runtime rt(engine::Launch{.workers = 4, .scheduler = GetParam(),
                                  .collect_trace = true, .enable_guard = true});
  rt.run(flow);
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(
                DataHandle<std::uint64_t>{4}),
            expected_total(200));
  DependencyGraph g(flow);
  const auto v = rt.trace().validate(flow, g, false);
  EXPECT_TRUE(v.ok()) << v.reason;
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ReductionCoor,
                         ::testing::Values(coor::SchedulerKind::kFifo,
                                           coor::SchedulerKind::kLifo,
                                           coor::SchedulerKind::kLocality),
                         [](const auto& i) {
                           return std::string(coor::to_string(i.param));
                         });

TEST(ReductionEngines, RioExecutesReductionsInOrder) {
  auto flow = histogram_flow(120, 3);
  rt::Runtime rt(engine::Launch{.workers = 3, .collect_trace = true,
                                .enable_guard = true});
  rt.run(flow, rt::mapping::round_robin(3));
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(
                DataHandle<std::uint64_t>{3}),
            expected_total(120));
  DependencyGraph g(flow);
  const auto v = rt.trace().validate(flow, g, true);
  EXPECT_TRUE(v.ok()) << v.reason;
}

TEST(ReductionEngines, PrunedRioMatches) {
  auto flow = histogram_flow(90, 2);
  const auto mapping = rt::mapping::round_robin(2);
  const FlowImage image = FlowImage::compile(flow);
  rt::PrunedPlan plan(image, mapping, 2);
  rt::Runtime prt(engine::Launch{.workers = 2});
  prt.run(image, plan);
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(
                DataHandle<std::uint64_t>{2}),
            expected_total(90));
}

// ------------------------------------------------------------ simulator ----

TEST(ReductionSim, CommutingUnlocksParallelismInCentralizedModel) {
  // One shared accumulator, 4096 tasks: as a RW chain the centralized
  // model serializes them; as reductions they spread across workers.
  auto build = [](AccessMode mode) {
    TaskFlow flow;
    auto d = flow.create_data<std::uint64_t>("acc");
    for (int i = 0; i < 4096; ++i)
      flow.add_virtual(10'000, {Access{d.id, mode}});
    return flow;
  };
  sim::CentralizedParams cp;
  auto chain = build(AccessMode::kReadWrite);
  auto red = build(AccessMode::kReduction);
  const auto chain_rep = sim::simulate_centralized(chain, cp);
  const auto red_rep = sim::simulate_centralized(red, cp);
  EXPECT_LT(red_rep.makespan * 4, chain_rep.makespan)
      << "reductions should be at least 4x faster than the serial chain";
}

// --------------------------------------------------------------- limits ----

TEST(ReductionLimitsDeath, ModelCheckerRejectsReductions) {
  // The Appendix-B specs predate the reduction extension; the checker
  // refuses rather than silently mis-modelling commutativity.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto flow = reduction_flow({AccessMode::kReduction});
  EXPECT_DEATH((void)mc::check_stf(flow, 2),
               "does not support reduction accesses");
}

}  // namespace
