// Cross-module integration tests: flow ranges, trace exporters fed by real
// runtime traces, and the hybrid simulator against its component models.
#include <gtest/gtest.h>

#include <sstream>

#include "coor/coor.hpp"
#include "hybrid/hybrid.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;

// ------------------------------------------------------------ FlowRange ----

TEST(FlowRange, WholeFlowView) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 4; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  stf::FlowRange range(flow);
  EXPECT_EQ(range.size(), 4u);
  EXPECT_EQ(range.first_id(), 0u);
  EXPECT_EQ(range.num_data(), 1u);
  EXPECT_EQ(&range.registry(), &flow.registry());
}

TEST(FlowRange, SubRangeKeepsGlobalIds) {
  stf::TaskFlow flow;
  for (int i = 0; i < 10; ++i) flow.add_virtual(1, {});
  stf::FlowRange range(flow, 3, 4);
  EXPECT_EQ(range.size(), 4u);
  EXPECT_EQ(range.first_id(), 3u);
  EXPECT_EQ(range[0].id, 3u);
  EXPECT_EQ(range[3].id, 6u);
}

TEST(FlowRange, EmptyRange) {
  stf::TaskFlow flow;
  flow.add_virtual(1, {});
  stf::FlowRange range(flow, 1, 0);
  EXPECT_TRUE(range.empty());
  EXPECT_EQ(range.first_id(), stf::kInvalidTask);
}

TEST(FlowRange, DependencyGraphOnSubRangeIsLocal) {
  // A chain of 6; the sub-range [2,5) sees only its internal edges.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 6; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  stf::DependencyGraph g(stf::FlowRange(flow, 2, 3));
  EXPECT_EQ(g.num_tasks(), 3u);
  EXPECT_TRUE(g.predecessors(0).empty());  // cross-range dep not modelled
  EXPECT_EQ(g.predecessors(1), (std::vector<stf::TaskId>{0}));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(FlowRange, RioRunsSubRange) {
  stf::TaskFlow flow;
  auto d = flow.create_data<std::uint64_t>("d");
  for (int i = 0; i < 8; ++i)
    flow.add("inc", [d](stf::TaskContext& ctx) { ctx.scalar(d) += 1; },
             {stf::readwrite(d)});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt::Runtime runtime(engine::Launch{.workers = 2});
  runtime.run(stf::ImageRange(image, 0, 5), rt::mapping::round_robin(2));
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(d), 5u);
  runtime.run(stf::ImageRange(image, 5, 3), rt::mapping::round_robin(2));
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(d), 8u);
}

// ---------------------------------------------------------- trace export ---

stf::TaskFlow traced_flow(rt::Runtime& runtime, std::uint32_t workers) {
  stf::TaskFlow flow;
  auto d = flow.create_data<std::uint64_t>("d");
  for (int i = 0; i < 16; ++i)
    flow.add("chain_" + std::to_string(i),
             [d](stf::TaskContext& ctx) { ctx.scalar(d) += 1; },
             {stf::readwrite(d)});
  runtime.run(flow, rt::mapping::round_robin(workers));
  return flow;
}

TEST(TraceExport, ChromeJsonIsWellFormedIsh) {
  rt::Runtime runtime(engine::Launch{.workers = 2, .collect_trace = true});
  auto flow = traced_flow(runtime, 2);
  std::ostringstream os;
  stf::export_chrome_trace(runtime.trace(), flow, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("chain_0"), std::string::npos);
  EXPECT_NE(json.find("chain_15"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces (cheap structural sanity).
  long depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceExport, JsonEscapesSpecialCharacters) {
  stf::TaskFlow flow;
  flow.add("quote\"back\\slash", [](stf::TaskContext&) {}, {});
  rt::Runtime runtime(engine::Launch{.workers = 1, .collect_trace = true});
  runtime.run(flow, rt::mapping::single());
  std::ostringstream os;
  stf::export_chrome_trace(runtime.trace(), flow, os);
  EXPECT_NE(os.str().find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(TraceExport, JsonEscapesControlCharacters) {
  // Regression: escape() used to pass through control chars below 0x20
  // other than '\n', producing invalid JSON for names with e.g. '\t'.
  stf::TaskFlow flow;
  flow.add(std::string("tab\there\x01raw\nline"), [](stf::TaskContext&) {},
           {});
  rt::Runtime runtime(engine::Launch{.workers = 1, .collect_trace = true});
  runtime.run(flow, rt::mapping::single());
  std::ostringstream os;
  stf::export_chrome_trace(runtime.trace(), flow, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("tab\\there\\u0001raw\\nline"), std::string::npos);
  for (char c : json)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character leaked into the JSON output";
}

TEST(TraceExport, CsvQuotesNamesWithDelimiters) {
  // Regression: export_csv wrote names unquoted, so a comma in a task name
  // shifted every following column.
  stf::TaskFlow flow;
  flow.add("gemm(1,2)", [](stf::TaskContext&) {}, {});
  flow.add("say \"hi\"", [](stf::TaskContext&) {}, {});
  rt::Runtime runtime(engine::Launch{.workers = 1, .collect_trace = true});
  runtime.run(flow, rt::mapping::single());
  std::ostringstream os;
  stf::export_csv(runtime.trace(), flow, os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("\"gemm(1,2)\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  // Every row still has exactly 6 commas (7 columns).
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t commas = 0;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++commas;
    }
    EXPECT_EQ(commas, 6u) << line;
  }
}

TEST(TraceExport, CsvHasHeaderAndAllRows) {
  rt::Runtime runtime(engine::Launch{.workers = 2, .collect_trace = true});
  auto flow = traced_flow(runtime, 2);
  std::ostringstream os;
  stf::export_csv(runtime.trace(), flow, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("task,name,worker,", 0), 0u);
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 17u);  // header + 16 tasks
}

TEST(TraceExport, UtilizationSumsTasks) {
  rt::Runtime runtime(engine::Launch{.workers = 3, .collect_trace = true});
  auto flow = traced_flow(runtime, 3);
  const auto util = stf::summarize_utilization(runtime.trace());
  ASSERT_EQ(util.size(), 3u);
  std::uint64_t tasks = 0;
  for (const auto& u : util) {
    tasks += u.tasks;
    EXPECT_LE(u.utilization(), 1.0 + 1e-9);
    EXPECT_LE(u.busy_ns, u.span_ns + 1);
  }
  EXPECT_EQ(tasks, 16u);
}

TEST(TraceExport, EmptyTraceProducesValidOutputs) {
  stf::TaskFlow flow;
  stf::Trace trace;
  std::ostringstream js, csv;
  stf::export_chrome_trace(trace, flow, js);
  stf::export_csv(trace, flow, csv);
  EXPECT_NE(js.str().find("\"traceEvents\":[]"), std::string::npos);
  EXPECT_TRUE(stf::summarize_utilization(trace).empty());
}

TEST(TraceExport, CoorTraceExportsToo) {
  stf::TaskFlow flow;
  for (int i = 0; i < 10; ++i)
    flow.add("t" + std::to_string(i), [](stf::TaskContext&) {}, {});
  coor::Runtime runtime(engine::Launch{.workers = 2, .collect_trace = true});
  runtime.run(flow);
  std::ostringstream os;
  stf::export_chrome_trace(runtime.trace(), flow, os);
  EXPECT_NE(os.str().find("t9"), std::string::npos);
}

// ------------------------------------------------------------ hybrid sim ---

TEST(SimHybrid, SinglePhaseEqualsComponentModel) {
  workloads::IndependentSpec spec;
  spec.num_tasks = 1000;
  spec.task_cost = 500;
  spec.body = workloads::BodyKind::kNone;
  auto wl = workloads::make_independent(spec);
  sim::DecentralizedParams dp;
  dp.workers = 8;
  sim::CentralizedParams cp;
  cp.workers = 8;

  // All-static single phase == simulate_decentralized.
  std::vector<hybrid::Phase> all_static(1);
  all_static[0].kind = hybrid::Phase::Kind::kStatic;
  all_static[0].first = 0;
  all_static[0].count = 1000;
  all_static[0].mapping = rt::mapping::round_robin(8);
  const auto hyb =
      sim::simulate_hybrid(wl.flow, all_static, dp, cp);
  const auto pure =
      sim::simulate_decentralized(wl.flow, rt::mapping::round_robin(8), dp);
  EXPECT_EQ(hyb.makespan, pure.makespan);

  // All-dynamic single phase == simulate_centralized.
  std::vector<hybrid::Phase> all_dynamic(1);
  all_dynamic[0].kind = hybrid::Phase::Kind::kDynamic;
  all_dynamic[0].first = 0;
  all_dynamic[0].count = 1000;
  const auto hyb2 = sim::simulate_hybrid(wl.flow, all_dynamic, dp, cp);
  const auto pure2 = sim::simulate_centralized(wl.flow, cp);
  EXPECT_EQ(hyb2.makespan, pure2.makespan);
}

TEST(SimHybrid, MakespanIsSumOfPhases) {
  workloads::IndependentSpec spec;
  spec.num_tasks = 600;
  spec.task_cost = 1000;
  spec.body = workloads::BodyKind::kNone;
  auto wl = workloads::make_independent(spec);
  sim::DecentralizedParams dp;
  dp.workers = 4;
  sim::CentralizedParams cp;
  cp.workers = 4;

  std::vector<hybrid::Phase> phases(2);
  phases[0] = {hybrid::Phase::Kind::kStatic, 0, 300,
               rt::mapping::round_robin(4)};
  phases[1] = {hybrid::Phase::Kind::kDynamic, 300, 300, {}};
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto hyb = sim::simulate_hybrid(image, phases, dp, cp);

  const auto s = sim::simulate_decentralized(
      stf::ImageRange(image, 0, 300), rt::mapping::round_robin(4), dp);
  const auto d =
      sim::simulate_centralized(stf::ImageRange(image, 300, 300), cp);
  EXPECT_EQ(hyb.makespan, s.makespan + d.makespan);
  // Per-thread tau identity holds for the combined report too.
  for (const auto& w : hyb.stats.workers)
    EXPECT_EQ(w.buckets.total(), hyb.makespan);
}

TEST(SimHybrid, HplMixedFlowBeatsCentralizedAtFineGranularity) {
  workloads::TiledMatrix a(4, 64);
  a.fill_random(55);
  auto hpl = workloads::make_hpl_lu(a, 16);
  sim::DecentralizedParams dp;
  dp.workers = 16;
  sim::CentralizedParams cp;
  cp.workers = 16;
  const auto phases =
      hybrid::partition(hpl.workload.flow, hpl.partial_mapping(), 16);
  const auto hyb = sim::simulate_hybrid(hpl.workload.flow, phases, dp, cp);
  const auto coor = sim::simulate_centralized(hpl.workload.flow, cp);
  EXPECT_LT(hyb.makespan, coor.makespan);
}

// ----------------------------------------------------- cross-engine trace --

TEST(CrossEngine, AllEnginesProduceValidTracesOnLu) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 4;
  spec.task_cost = 100;
  spec.num_workers = 3;
  auto wl = workloads::make_lu_dag(spec);
  stf::DependencyGraph graph(wl.flow);

  rt::Runtime rio_rt(engine::Launch{.workers = 3, .collect_trace = true,
                                    .enable_guard = true});
  rio_rt.run(wl.flow, wl.mapping(3));
  auto r1 = rio_rt.trace().validate(wl.flow, graph, true);
  EXPECT_TRUE(r1.ok()) << r1.reason;

  coor::Runtime coor_rt(engine::Launch{.workers = 3, .collect_trace = true,
                                       .enable_guard = true});
  coor_rt.run(wl.flow);
  auto r2 = coor_rt.trace().validate(wl.flow, graph, false);
  EXPECT_TRUE(r2.ok()) << r2.reason;
}

}  // namespace
