// Cross-module integration tests: image ranges, the trace exporter fed by
// real recorded runs, and the hybrid simulator against its component
// models.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <type_traits>

#include "coor/coor.hpp"
#include "hybrid/hybrid.hpp"
#include "obs/export.hpp"
#include "recorded_trace.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;

// ----------------------------------------------------------- ImageRange ----

// A compiled image converts to its whole-image range; a temporary does not,
// so no range can outlive the image it borrows.
static_assert(std::is_convertible_v<const stf::FlowImage&, stf::ImageRange>);
static_assert(!std::is_convertible_v<stf::FlowImage&&, stf::ImageRange>);
static_assert(
    !std::is_constructible_v<stf::ImageRange, stf::FlowImage&&, std::size_t,
                             std::size_t>);

TEST(ImageRange, WholeFlowView) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 4; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const stf::ImageRange range = image;
  EXPECT_EQ(range.size(), 4u);
  EXPECT_EQ(range.first_id(), 0u);
  EXPECT_EQ(range.num_data(), 1u);
  EXPECT_EQ(&range.registry(), &flow.registry());
}

TEST(ImageRange, SubRangeKeepsGlobalIds) {
  stf::TaskFlow flow;
  for (int i = 0; i < 10; ++i) flow.add_virtual(1, {});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const stf::ImageRange range(image, 3, 4);
  EXPECT_EQ(range.size(), 4u);
  EXPECT_EQ(range.first_id(), 3u);
  EXPECT_EQ(range.task(0).id, 3u);
  EXPECT_EQ(range.task(3).id, 6u);
}

TEST(ImageRange, EmptyRange) {
  stf::TaskFlow flow;
  flow.add_virtual(1, {});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const stf::ImageRange range(image, 1, 0);
  EXPECT_TRUE(range.empty());
  EXPECT_EQ(range.first_id(), 1u);  // the start id, even with no task
}

TEST(ImageRange, DependencyGraphOnSubRangeIsLocal) {
  // A chain of 6; the sub-range [2,5) sees only its internal edges.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 6; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  stf::DependencyGraph g(stf::ImageRange(image, 2, 3));
  EXPECT_EQ(g.num_tasks(), 3u);
  EXPECT_TRUE(g.predecessors(0).empty());  // cross-range dep not modelled
  EXPECT_EQ(g.predecessors(1), (std::vector<stf::TaskId>{0}));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(ImageRange, RioRunsSubRange) {
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

/// Chrome trace JSON of `hub` with body slices named after `flow`'s tasks.
std::string named_trace(const obs::Hub& hub, const stf::TaskFlow& flow) {
  std::ostringstream os;
  obs::write_perfetto_trace(hub, os, [&flow](std::uint64_t t) {
    return flow.task(t).name;
  });
  return os.str();
}

stf::TaskFlow traced_flow(rt::Runtime& runtime, std::uint32_t workers) {
  stf::TaskFlow flow;
  auto d = flow.create_data<std::uint64_t>("d");
  for (int i = 0; i < 16; ++i)
    flow.add("chain_" + std::to_string(i),
             [d](stf::TaskContext& ctx) { ctx.scalar(d) += 1; },
             {stf::readwrite(d)});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  runtime.run(image, rt::mapping::round_robin(workers));
  return flow;
}

TEST(TraceExport, ChromeJsonIsWellFormedIsh) {
  obs::Hub hub(obs::HubOptions{.recorder = true});
  rt::Runtime runtime(engine::Launch{.workers = 2, .obs = &hub});
  auto flow = traced_flow(runtime, 2);
  const std::string json = named_trace(hub, flow);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of('\n')], ']');
  EXPECT_NE(json.find("\"chain_0\""), std::string::npos);
  EXPECT_NE(json.find("\"chain_15\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Every body slice carries its task's name instead of the phase's.
  EXPECT_EQ(json.find("\"body\""), std::string::npos);
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
  obs::Hub hub(obs::HubOptions{.recorder = true});
  rt::Runtime runtime(engine::Launch{.workers = 1, .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  runtime.run(image, rt::mapping::single());
  EXPECT_NE(named_trace(hub, flow).find("quote\\\"back\\\\slash"),
            std::string::npos);
}

TEST(TraceExport, JsonEscapesControlCharacters) {
  // Regression: escape() used to pass through control chars below 0x20
  // other than '\n', producing invalid JSON for names with e.g. '\t'.
  stf::TaskFlow flow;
  flow.add(std::string("tab\there\x01raw\nline"), [](stf::TaskContext&) {},
           {});
  obs::Hub hub(obs::HubOptions{.recorder = true});
  rt::Runtime runtime(engine::Launch{.workers = 1, .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  runtime.run(image, rt::mapping::single());
  const std::string json = named_trace(hub, flow);
  EXPECT_NE(json.find("tab\\there\\u0001raw\\nline"), std::string::npos);
  for (char c : json)
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20u)
        << "raw control character leaked into the JSON output";
}

TEST(TraceExport, EmptyTraceProducesValidOutputs) {
  const obs::Hub hub(obs::HubOptions{.recorder = true});
  std::ostringstream os;
  obs::write_perfetto_trace(hub, os, [](std::uint64_t) { return "x"; });
  EXPECT_EQ(os.str().front(), '[');
  EXPECT_EQ(os.str().find("\"X\""), std::string::npos);
  EXPECT_TRUE(testutil::recorded_trace(hub).events().empty());
}

TEST(TraceExport, CoorTraceExportsToo) {
  stf::TaskFlow flow;
  for (int i = 0; i < 10; ++i)
    flow.add("t" + std::to_string(i), [](stf::TaskContext&) {}, {});
  obs::Hub hub(obs::HubOptions{.recorder = true});
  coor::Runtime runtime(engine::Launch{.workers = 2, .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  runtime.run(image);
  EXPECT_NE(named_trace(hub, flow).find("\"t9\""), std::string::npos);
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
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto hyb =
      sim::simulate_hybrid(image, all_static, dp, cp);
  const auto pure =
      sim::simulate_decentralized(image, rt::mapping::round_robin(8), dp);
  EXPECT_EQ(hyb.makespan, pure.makespan);

  // All-dynamic single phase == simulate_centralized.
  std::vector<hybrid::Phase> all_dynamic(1);
  all_dynamic[0].kind = hybrid::Phase::Kind::kDynamic;
  all_dynamic[0].first = 0;
  all_dynamic[0].count = 1000;
  const auto hyb2 = sim::simulate_hybrid(image, all_dynamic, dp, cp);
  const auto pure2 = sim::simulate_centralized(image, cp);
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
  const stf::FlowImage hpl_image = stf::FlowImage::compile(hpl.workload.flow);
  const auto phases =
      hybrid::partition(hpl_image.size(), hpl.partial_mapping(), 16);
  const auto hyb = sim::simulate_hybrid(hpl_image, phases, dp, cp);
  const auto coor = sim::simulate_centralized(hpl_image, cp);
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

  obs::Hub hub(stf::trace_recorder(wl.flow.num_tasks()));
  rt::Runtime rio_rt(
      engine::Launch{.workers = 3, .enable_guard = true, .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rio_rt.run(image, wl.mapping(3));
  auto r1 = testutil::recorded_trace(hub).validate(wl.flow, graph, true);
  EXPECT_TRUE(r1.ok()) << r1.reason;

  hub.reset();
  coor::Runtime coor_rt(
      engine::Launch{.workers = 3, .enable_guard = true, .obs = &hub});
  coor_rt.run(image);
  auto r2 = testutil::recorded_trace(hub).validate(wl.flow, graph, false);
  EXPECT_TRUE(r2.ok()) << r2.reason;
}

}  // namespace
