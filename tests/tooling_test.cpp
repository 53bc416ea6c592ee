// Tests for the tooling layers: topology/pinning, DOT export, flow
// summaries, and the pinned-runtime code paths.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "coor/coor.hpp"
#include "rio/rio.hpp"
#include "support/topology.hpp"
#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;

// -------------------------------------------------------------- topology ---

TEST(Topology, DetectsAtLeastOneCpu) {
  const auto topo = support::detect_topology();
  EXPECT_GE(topo.logical_cpus, 1u);
}

TEST(Topology, PinToCpuZeroSucceeds) {
  EXPECT_TRUE(support::pin_current_thread(0));
  EXPECT_TRUE(support::unpin_current_thread());
}

TEST(Topology, PinOutOfRangeFails) {
  EXPECT_FALSE(support::pin_current_thread(1u << 20));
}

TEST(Topology, PinFromSpawnedThread) {
  bool ok = false;
  std::thread t([&] { ok = support::pin_current_thread(0); });
  t.join();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(support::unpin_current_thread());
}

TEST(PinnedRuntimes, RioWithPinningStillCorrect) {
  stf::TaskFlow flow;
  auto d = flow.create_data<std::uint64_t>("d");
  for (int i = 0; i < 40; ++i)
    flow.add("inc", [d](stf::TaskContext& ctx) { ctx.scalar(d) += 2; },
             {stf::readwrite(d)});
  rt::Runtime runtime(engine::Launch{.workers = 2, .pin_workers = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  runtime.run(image, rt::mapping::round_robin(2));
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(d), 80u);
}

TEST(PinnedRuntimes, CoorWithPinningStillCorrect) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 3;
  spec.col_tiles = 3;
  spec.task_cost = 10;
  auto wl = workloads::make_lu_dag(spec);
  coor::Runtime runtime(engine::Launch{.workers = 2, .pin_workers = true});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto stats = runtime.run(image);
  EXPECT_EQ(stats.tasks_executed(), wl.flow.num_tasks());
}

// ------------------------------------------------------------ DOT export ---

TEST(DotExport, EmitsNodesAndEdges) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  flow.add("producer", {}, {stf::write(d)});
  flow.add("consumer", {}, {stf::read(d)});
  stf::DependencyGraph g(flow);
  std::ostringstream os;
  stf::export_dot(flow, g, os);
  const std::string dot = os.str();
  EXPECT_EQ(dot.rfind("digraph taskflow {", 0), 0u);
  EXPECT_NE(dot.find("producer"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1;"), std::string::npos);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
}

TEST(DotExport, ClustersByWorker) {
  stf::TaskFlow flow;
  for (int i = 0; i < 4; ++i) flow.add_virtual(1, {});
  stf::DependencyGraph g(flow);
  std::ostringstream os;
  stf::DotOptions opt;
  opt.cluster_by_worker = true;
  stf::export_dot(flow, g, os, {0, 1, 0, stf::kInvalidWorker}, opt);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("cluster_w0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_w1"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // unmapped node
}

TEST(DotExport, SuppressesHugeGraphs) {
  stf::TaskFlow flow;
  for (int i = 0; i < 100; ++i) flow.add_virtual(1, {});
  stf::DependencyGraph g(flow);
  std::ostringstream os;
  stf::DotOptions opt;
  opt.max_tasks = 10;
  stf::export_dot(flow, g, os, {}, opt);
  EXPECT_NE(os.str().find("rendering suppressed"), std::string::npos);
}

TEST(DotExport, EscapesQuotesInNames) {
  stf::TaskFlow flow;
  flow.add("say \"hi\"", {}, {});
  stf::DependencyGraph g(flow);
  std::ostringstream os;
  stf::export_dot(flow, g, os);
  EXPECT_NE(os.str().find("say \\\"hi\\\""), std::string::npos);
}

// ----------------------------------------------------------- flow summary --

TEST(FlowSummary, MatchesLuStructure) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 4;
  spec.task_cost = 10;
  auto wl = workloads::make_lu_dag(spec);
  stf::DependencyGraph g(wl.flow);
  const auto s = stf::summarize_flow(wl.flow, g);
  EXPECT_EQ(s.tasks, workloads::lu_dag_task_count(4, 4));
  EXPECT_EQ(s.data_objects, 16u);
  EXPECT_EQ(s.edges, g.num_edges());
  EXPECT_EQ(s.total_cost, s.tasks * 10);
  EXPECT_GT(s.parallelism(), 1.0);
  EXPECT_GT(s.avg_accesses_per_task, 1.0);

  std::ostringstream os;
  stf::print_summary(s, os);
  EXPECT_NE(os.str().find("critical path"), std::string::npos);
}

TEST(FlowSummary, EmptyFlowIsSane) {
  stf::TaskFlow flow;
  stf::DependencyGraph g(flow);
  const auto s = stf::summarize_flow(flow, g);
  EXPECT_EQ(s.tasks, 0u);
  EXPECT_EQ(s.parallelism(), 1.0);
}

}  // namespace
