// FlowImage compilation and fast-replay equivalence.
//
// The compiled SoA image (stf/flow_image.hpp) must be a faithful mirror of
// the source flow — same accesses, costs, names, ids — and replaying it
// through any engine must be indistinguishable from streaming the AoS
// flow: identical traces (up to scheduling freedom), identical final data,
// clean happens-before verdicts, and a pruned-plan cache that compiles
// exactly once per (image, mapping, workers) key.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/hb_checker.hpp"
#include "rio/pruning.hpp"
#include "rio/runtime.hpp"
#include "coor/runtime.hpp"
#include "sim/simulate.hpp"
#include "stf/sequential.hpp"
#include "stf/stf.hpp"
#include "workloads/synthetic.hpp"

using namespace rio;

namespace {

stf::TaskFlow make_named_flow() {
  stf::TaskFlow flow;
  auto a = flow.create_data<int>("a");
  auto b = flow.create_data<int>("b");
  flow.add("init", {}, {stf::write(a)}, 10);
  flow.add("read-both", {}, {stf::read(a), stf::write(b)}, 20);
  flow.add_virtual(30, {});  // data-less, unnamed
  flow.add("fini", {}, {stf::readwrite(b)}, 40);
  return flow;
}

workloads::Workload make_equivalence_workload() {
  workloads::RandomDepsSpec spec;
  spec.num_tasks = 300;
  spec.num_data = 24;
  spec.task_cost = 50;
  spec.body = workloads::BodyKind::kCounter;
  spec.seed = 7;
  return workloads::make_random_deps(spec);
}

/// (task, worker) assignment of a trace, sorted by task id; the
/// scheduling-independent part every replay must agree on.
std::vector<std::pair<stf::TaskId, stf::WorkerId>> assignment(
    const stf::Trace& trace) {
  std::vector<std::pair<stf::TaskId, stf::WorkerId>> out;
  out.reserve(trace.size());
  for (const auto& ev : trace.events()) out.emplace_back(ev.task, ev.worker);
  std::sort(out.begin(), out.end());
  return out;
}

void expect_clean_sync(const stf::TaskFlow& flow, const stf::SyncTrace& sync,
                       const char* what) {
  ASSERT_FALSE(sync.empty()) << what;
  const analysis::Report r = analysis::check_happens_before(flow, sync);
  EXPECT_FALSE(r.has("RC301")) << what;
  EXPECT_FALSE(r.has("RC304")) << what;
}

void expect_same_registry(const stf::DataRegistry& got,
                          const stf::DataRegistry& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (stf::DataId d = 0; d < want.size(); ++d)
    EXPECT_EQ(std::memcmp(got.raw(d), want.raw(d), want.bytes(d)), 0)
        << what << ", object " << d;
}

}  // namespace

// ---------------------------------------------------------------- layout ---

TEST(FlowImageLayout, MirrorsTheSourceFlow) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage img = stf::FlowImage::compile(flow);

  EXPECT_EQ(img.size(), flow.num_tasks());
  EXPECT_EQ(img.num_data(), flow.num_data());
  EXPECT_EQ(img.first_id(), 0u);
  EXPECT_EQ(img.num_accesses_total(), 4u);
  EXPECT_EQ(img.total_cost(), 100u);
  EXPECT_EQ(&img.registry(), &flow.registry());

  for (std::size_t i = 0; i < img.size(); ++i) {
    const stf::Task& src = flow.task(i);
    EXPECT_EQ(img.task_id(i), src.id);
    EXPECT_EQ(img.cost(i), src.cost);
    EXPECT_EQ(img.priority(i), src.priority);
    EXPECT_EQ(img.name(i), std::string_view(src.name));
    EXPECT_EQ(&img.task(i), &src);
    ASSERT_EQ(img.num_accesses(i), src.accesses.size());
    const stf::Access* acc = img.acc_begin(i);
    for (std::size_t k = 0; k < src.accesses.size(); ++k) {
      EXPECT_EQ(acc[k].data, src.accesses[k].data);
      EXPECT_EQ(acc[k].mode, src.accesses[k].mode);
    }
  }

  // Accesses are flat and contiguous: spans tile [0, total).
  const auto* spans = img.spans();
  std::uint32_t cursor = 0;
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_EQ(spans[i].begin, cursor);
    cursor = spans[i].end;
  }
  EXPECT_EQ(cursor, img.num_accesses_total());
}

TEST(FlowImageLayout, SerialsAreProcessUnique) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage a = stf::FlowImage::compile(flow);
  const stf::FlowImage b = stf::FlowImage::compile(flow);
  EXPECT_NE(a.serial(), 0u);
  EXPECT_NE(a.serial(), b.serial());
}

TEST(FlowImageLayout, SubrangeCompilationKeepsGlobalIds) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage img =
      stf::FlowImage::compile(stf::FlowRange(flow, 1, 2));
  EXPECT_EQ(img.size(), 2u);
  EXPECT_EQ(img.first_id(), 1u);
  EXPECT_EQ(img.task_id(0), 1u);
  EXPECT_EQ(img.name(0), "read-both");
  EXPECT_EQ(img.num_accesses(0), 2u);
  EXPECT_EQ(img.num_accesses(1), 0u);
}

TEST(FlowImageLayout, ImageRangeSlicesShareAbsoluteAccessIndices) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage img = stf::FlowImage::compile(flow);
  const stf::ImageRange slice(img, 1, 2);
  EXPECT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice.first_id(), 1u);
  EXPECT_EQ(slice.task_id(1), 2u);
  // Slice spans index into the IMAGE-absolute access array.
  const auto s0 = slice.spans()[0];
  EXPECT_EQ(slice.accesses_base() + s0.begin, slice.acc_begin(0));
  EXPECT_EQ(slice.num_accesses(0), 2u);
  EXPECT_EQ(&slice.task(0), &flow.task(1));
}

// ---------------------------------------------------------------- replay ---

TEST(FlowImageReplay, RioStreamingImageAndPrunedAgree) {
  constexpr std::uint32_t kWorkers = 3;
  auto wl_seq = make_equivalence_workload();
  stf::SequentialExecutor{}.run(wl_seq.flow);

  auto wl_stream = make_equivalence_workload();
  auto wl_image = make_equivalence_workload();
  auto wl_pruned = make_equivalence_workload();
  const engine::Launch cfg{.workers = kWorkers,
                           .collect_trace = true,
                           .collect_sync = true};
  const stf::DependencyGraph graph(stf::FlowRange(wl_stream.flow));

  rt::Runtime streaming(cfg);
  streaming.run(wl_stream.flow, wl_stream.mapping(kWorkers));
  ASSERT_TRUE(
      streaming.trace().validate(wl_stream.flow, graph, true).ok());
  expect_clean_sync(wl_stream.flow, streaming.sync_trace(), "streaming");
  expect_same_registry(wl_stream.flow.registry(), wl_seq.flow.registry(),
                       "streaming");

  rt::Runtime image_rt(cfg);
  const stf::FlowImage image = stf::FlowImage::compile(wl_image.flow);
  image_rt.run(image, wl_image.mapping(kWorkers));
  ASSERT_TRUE(image_rt.trace().validate(wl_image.flow, graph, true).ok());
  expect_clean_sync(wl_image.flow, image_rt.sync_trace(), "image");
  expect_same_registry(wl_image.flow.registry(), wl_seq.flow.registry(),
                       "image");

  rt::Runtime pruned(cfg);
  const stf::FlowImage pruned_image = stf::FlowImage::compile(wl_pruned.flow);
  pruned.run_pruned(pruned_image, wl_pruned.mapping(kWorkers));
  ASSERT_TRUE(pruned.trace().validate(wl_pruned.flow, graph, true).ok());
  expect_clean_sync(wl_pruned.flow, pruned.sync_trace(), "pruned");
  expect_same_registry(wl_pruned.flow.registry(), wl_seq.flow.registry(),
                       "pruned");

  // Identical (task -> worker) assignment: the mapping is the schedule.
  EXPECT_EQ(assignment(streaming.trace()), assignment(image_rt.trace()));
  EXPECT_EQ(assignment(streaming.trace()), assignment(pruned.trace()));
}

TEST(FlowImageReplay, CoorImageMatchesStreaming) {
  auto wl_seq = make_equivalence_workload();
  stf::SequentialExecutor{}.run(wl_seq.flow);

  auto wl_stream = make_equivalence_workload();
  auto wl_image = make_equivalence_workload();
  const engine::Launch cfg{.workers = 2,
                           .collect_trace = true,
                           .collect_sync = true};
  const stf::DependencyGraph graph(stf::FlowRange(wl_stream.flow));

  coor::Runtime streaming(cfg);
  streaming.run(wl_stream.flow);
  ASSERT_TRUE(
      streaming.trace().validate(wl_stream.flow, graph, false).ok());
  expect_clean_sync(wl_stream.flow, streaming.sync_trace(), "coor streaming");
  expect_same_registry(wl_stream.flow.registry(), wl_seq.flow.registry(),
                       "coor streaming");

  coor::Runtime image_rt(cfg);
  const stf::FlowImage image = stf::FlowImage::compile(wl_image.flow);
  image_rt.run(image);
  ASSERT_TRUE(image_rt.trace().validate(wl_image.flow, graph, false).ok());
  expect_clean_sync(wl_image.flow, image_rt.sync_trace(), "coor image");
  expect_same_registry(wl_image.flow.registry(), wl_seq.flow.registry(),
                       "coor image");

  // OoO scheduling may reorder, but both executions cover every task
  // exactly once.
  EXPECT_EQ(streaming.trace().size(), image_rt.trace().size());
}

// ----------------------------------------------------------------- cache ---

TEST(PruningCache, SecondRunCompilesNothing) {
  auto wl = make_equivalence_workload();
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const rt::Mapping mapping = wl.mapping(2);

  rt::Runtime prt(engine::Launch{.workers = 2});
  EXPECT_EQ(prt.plan_compiles(), 0u);
  prt.run_pruned(image, mapping);
  EXPECT_EQ(prt.plan_compiles(), 1u);
  prt.run_pruned(image, mapping);
  prt.run_pruned(image, mapping);
  EXPECT_EQ(prt.plan_compiles(), 1u);  // cache hit: zero recomputation

  // A different mapping is a different key...
  prt.run_pruned(image, rt::mapping::round_robin(2));
  EXPECT_EQ(prt.plan_compiles(), 2u);
  // ...and a recompiled image of the same flow is too (new serial).
  const stf::FlowImage again = stf::FlowImage::compile(wl.flow);
  prt.run_pruned(again, mapping);
  EXPECT_EQ(prt.plan_compiles(), 3u);
}

TEST(PruningCache, CopiedMappingSharesIdentity) {
  const rt::Mapping a = rt::mapping::round_robin(2);
  const rt::Mapping b = a;  // copies share the closure => same identity
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_NE(a.identity(), rt::mapping::round_robin(2).identity());

  auto wl = make_equivalence_workload();
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rt::PrunedPlanCache cache;
  const auto p1 = cache.get(image, a, 2);
  const auto p2 = cache.get(image, b, 2);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.compiles(), 1u);
  cache.get(image, a, 4);  // worker count is part of the key
  EXPECT_EQ(cache.compiles(), 2u);
}

TEST(PruningCache, DestroyedMappingNeverHitsAStalePlan) {
  // The cache keys on Mapping::identity(), a closure address. Were the
  // entry not to keep its mapping alive, the round-robin closure freed at
  // the end of the first scope could hand its address to the block
  // closure, and the second run would replay the round-robin plan.
  auto wl = make_equivalence_workload();
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rt::Runtime prt(engine::Launch{.workers = 3, .collect_trace = true});
  {
    const rt::Mapping rr = rt::mapping::round_robin(3);
    prt.run_pruned(image, rr);
  }
  {
    const rt::Mapping blk = rt::mapping::block(image.size(), 3);
    prt.run_pruned(image, blk);
    EXPECT_EQ(prt.plan_compiles(), 2u);
    ASSERT_EQ(prt.trace().events().size(), image.size());
    for (const stf::TraceEvent& ev : prt.trace().events())
      EXPECT_EQ(ev.worker, blk(ev.task)) << "task " << ev.task;
  }
}

TEST(PruningCache, ImagePlanMatchesFlowPlan) {
  // The image-compiled plan must carry exactly the (last writer, reads
  // since) pair a full unroll of the source TaskFlow would have declared
  // before each task: recompute that reference straight from the Task
  // records and compare field by field.
  auto wl = make_equivalence_workload();
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const rt::Mapping mapping = wl.mapping(3);
  const rt::PrunedPlan plan(image, mapping, 3);
  ASSERT_EQ(plan.total_tasks(), wl.flow.num_tasks());

  struct Replica {
    stf::TaskId writer = rt::kNoWrite;
    std::uint64_t reads = 0;
  };
  std::vector<Replica> replica(wl.flow.num_data());
  std::vector<std::size_t> cursor(3, 0);
  for (const stf::Task& task : wl.flow.tasks()) {
    const stf::WorkerId w = mapping(task.id);
    const auto mine = plan.tasks_for(w);
    ASSERT_LT(cursor[w], mine.size()) << "worker " << w;
    const std::uint32_t i = mine[cursor[w]++];
    EXPECT_EQ(image.task_id(i), task.id);
    const stf::FlowImage::Span s = image.spans()[i];
    ASSERT_EQ(s.end - s.begin, task.accesses.size());
    for (std::size_t k = 0; k < task.accesses.size(); ++k) {
      const stf::Access& a = task.accesses[k];
      const std::size_t slot = s.begin + k;
      EXPECT_EQ(image.accesses()[slot].data, a.data);
      EXPECT_EQ(image.accesses()[slot].mode, a.mode);
      EXPECT_EQ(plan.seed(slot).expected_writer, replica[a.data].writer);
      EXPECT_EQ(plan.seed(slot).expected_reads, replica[a.data].reads);
    }
    for (const stf::Access& a : task.accesses) {
      if (stf::is_write(a.mode))
        replica[a.data] = {task.id, 0};
      else
        replica[a.data].reads += 1;
    }
  }
  for (stf::WorkerId w = 0; w < 3; ++w)
    EXPECT_EQ(cursor[w], plan.tasks_for(w).size()) << "worker " << w;
}

// ------------------------------------------------------------------- sim ---

TEST(SimImage, FlowAndImageEntryPointsAreBitIdentical) {
  workloads::RandomDepsSpec spec;
  spec.num_tasks = 400;
  spec.num_data = 32;
  spec.body = workloads::BodyKind::kNone;
  auto wl = workloads::make_random_deps(spec);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);

  sim::DecentralizedParams dp;
  dp.workers = 4;
  const auto via_flow =
      sim::simulate_decentralized(wl.flow, wl.mapping(4), dp);
  const auto via_image =
      sim::simulate_decentralized(image, wl.mapping(4), dp);
  EXPECT_EQ(via_flow.makespan, via_image.makespan);
  ASSERT_EQ(via_flow.stats.workers.size(), via_image.stats.workers.size());
  for (std::size_t w = 0; w < via_flow.stats.workers.size(); ++w) {
    EXPECT_EQ(via_flow.stats.workers[w].buckets.task_ns,
              via_image.stats.workers[w].buckets.task_ns);
    EXPECT_EQ(via_flow.stats.workers[w].buckets.idle_ns,
              via_image.stats.workers[w].buckets.idle_ns);
    EXPECT_EQ(via_flow.stats.workers[w].buckets.runtime_ns,
              via_image.stats.workers[w].buckets.runtime_ns);
  }

  sim::CentralizedParams cp;
  cp.workers = 4;
  EXPECT_EQ(sim::simulate_centralized(wl.flow, cp).makespan,
            sim::simulate_centralized(image, cp).makespan);
}
