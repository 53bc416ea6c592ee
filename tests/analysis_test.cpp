// Tests for src/analysis: the static flow lint and the happens-before race
// checker. The fixtures must each produce their finding; every shipped
// workload generator must lint clean (no warnings/errors); and the injected
// race must be caught by the HB checker while the interval validator —
// which only sees disjoint wall-clock windows — passes.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "analysis/analysis.hpp"
#include "coor/coor.hpp"
#include "rio/rio.hpp"
#include "stf/dependency.hpp"
#include "stf/trace.hpp"
#include "workloads/workloads.hpp"

namespace rio {
namespace {

analysis::Report lint(const stf::TaskFlow& flow,
                      const analysis::LintOptions& opts = {}) {
  stf::DependencyGraph graph(flow);
  return analysis::lint_flow(flow, graph, opts);
}

// ---- seeded-bad fixtures --------------------------------------------------

TEST(FlowLint, UninitReadFixtureFires) {
  const stf::TaskFlow flow = analysis::fixtures::bad_uninit_read();
  const analysis::Report r = lint(flow);
  EXPECT_TRUE(r.has("RF001"));
  EXPECT_GE(r.worst_severity(), analysis::Severity::kWarning);
  // Reported once per object, at the first offending task.
  std::size_t n = 0;
  for (const auto& f : r.findings())
    if (f.code == "RF001") {
      ++n;
      EXPECT_EQ(f.task, 0u);
    }
  EXPECT_EQ(n, 1u);
}

TEST(FlowLint, ZeroInitReadIsNotFlagged) {
  stf::TaskFlow flow;
  auto d = flow.create_data<double>("zeroed", 8);  // defined contents
  flow.add_virtual(1, {stf::read(d)}, "reader");
  EXPECT_FALSE(lint(flow).has("RF001"));
}

TEST(FlowLint, DeadWriteFixtureFires) {
  const stf::TaskFlow flow = analysis::fixtures::bad_dead_write();
  const analysis::Report r = lint(flow);
  ASSERT_TRUE(r.has("RF002"));
  for (const auto& f : r.findings())
    if (f.code == "RF002") EXPECT_EQ(f.task, 0u);  // the wasted write
}

TEST(FlowLint, ReadWriteKeepsPriorWriteLive) {
  stf::TaskFlow flow;
  auto x = flow.create_data<double>("x", 4);
  flow.add_virtual(1, {stf::write(x)}, "init");
  flow.add_virtual(1, {stf::readwrite(x)}, "update");  // consumes init
  flow.add_virtual(1, {stf::read(x)}, "reader");
  EXPECT_FALSE(lint(flow).has("RF002"));
}

TEST(FlowLint, UnusedHandleFixtureFires) {
  const analysis::Report r = lint(analysis::fixtures::bad_unused_handle());
  ASSERT_TRUE(r.has("RF003"));
  for (const auto& f : r.findings())
    if (f.code == "RF003") EXPECT_EQ(f.data, 1u);  // 'orphan'
}

TEST(FlowLint, RedundantEdgeFixtureFires) {
  const analysis::Report r = lint(analysis::fixtures::bad_redundant_edge());
  ASSERT_TRUE(r.has("RF004"));
  for (const auto& f : r.findings())
    if (f.code == "RF004") {
      EXPECT_EQ(f.severity, analysis::Severity::kInfo);
      EXPECT_EQ(f.count, 1u);
    }
}

TEST(FlowLint, ChainHasNoRedundantEdges) {
  stf::TaskFlow flow;
  auto x = flow.create_data<double>("x", 4);
  for (int i = 0; i < 5; ++i)
    flow.add_virtual(1, {stf::readwrite(x)}, "step");
  EXPECT_FALSE(lint(flow).has("RF004"));
}

TEST(FlowLint, ZeroAccessTasksAggregateToOneInfo) {
  stf::TaskFlow flow;
  for (int i = 0; i < 7; ++i) flow.add_virtual(1, {}, "free");
  const analysis::Report r = lint(flow);
  ASSERT_TRUE(r.has("RF005"));
  for (const auto& f : r.findings())
    if (f.code == "RF005") {
      EXPECT_EQ(f.count, 7u);
      EXPECT_EQ(f.severity, analysis::Severity::kInfo);
    }
  EXPECT_LT(r.worst_severity(), analysis::Severity::kWarning);
}

TEST(FlowLint, WriteOnlyObjectIsInfoNotDeadWrite) {
  stf::TaskFlow flow;
  auto sink = flow.create_data<double>("sink", 4);
  flow.add_virtual(1, {stf::write(sink)}, "w0");
  flow.add_virtual(1, {stf::write(sink)}, "w1");  // nothing ever reads sink
  const analysis::Report r = lint(flow);
  EXPECT_FALSE(r.has("RF002"));
  EXPECT_TRUE(r.has("RF006"));
  EXPECT_LT(r.worst_severity(), analysis::Severity::kWarning);
}

// ---- mapping + counter diagnostics ---------------------------------------

TEST(FlowLint, MappingOutOfRangeIsError) {
  stf::TaskFlow flow;
  auto x = flow.create_data<double>("x", 4);
  flow.add_virtual(1, {stf::readwrite(x)}, "t");
  const rt::Mapping bad = rt::mapping::custom(
      "bad", [](stf::TaskId) { return stf::WorkerId{9}; });
  analysis::LintOptions opts;
  opts.mapping = &bad;
  opts.num_workers = 2;
  const analysis::Report r = lint(flow, opts);
  EXPECT_TRUE(r.has("RM101"));
  EXPECT_EQ(r.worst_severity(), analysis::Severity::kError);
}

TEST(FlowLint, ImbalancedMappingWarns) {
  stf::TaskFlow flow;
  for (int i = 0; i < 64; ++i) flow.add_virtual(100, {}, "t");
  const rt::Mapping all_on_0 = rt::mapping::single(0);
  analysis::LintOptions opts;
  opts.mapping = &all_on_0;
  opts.num_workers = 4;  // everything lands on worker 0 => max/mean = 4
  EXPECT_TRUE(lint(flow, opts).has("RM102"));
}

TEST(FlowLint, BalancedMappingDoesNotWarn) {
  stf::TaskFlow flow;
  for (int i = 0; i < 64; ++i) flow.add_virtual(100, {}, "t");
  const rt::Mapping rr = rt::mapping::round_robin(4);
  analysis::LintOptions opts;
  opts.mapping = &rr;
  opts.num_workers = 4;
  EXPECT_FALSE(lint(flow, opts).has("RM102"));
}

TEST(FlowLint, NarrowCounterOverflowFires) {
  stf::TaskFlow flow;
  auto x = flow.create_data<double>("x", 4);
  flow.add_virtual(1, {stf::write(x)}, "init");
  for (int i = 0; i < 20; ++i)
    flow.add_virtual(1, {stf::read(x)}, "reader");  // 20 reads, no write
  analysis::LintOptions opts;
  opts.counter_bits = 4;  // 2^4 = 16 < 20 readers between writes
  const analysis::Report r = lint(flow, opts);
  EXPECT_TRUE(r.has("RP201"));  // 21 tasks >= 2^4 too
  EXPECT_TRUE(r.has("RP202"));
  EXPECT_FALSE(lint(flow).has("RP202"));  // 64-bit counters never overflow
}

// ---- phase-boundary lint (RH4xx) -----------------------------------------

analysis::Report lint_phases(const analysis::fixtures::PhaseFixture& fx,
                             std::uint32_t workers) {
  analysis::LintOptions opts;
  opts.phases = &fx.phases;
  opts.num_workers = workers;
  return lint(fx.flow, opts);
}

TEST(FlowLint, PhaseMappingOutOfRangeIsError) {
  const auto fx = analysis::fixtures::bad_phase_mapping();
  const analysis::Report r = lint_phases(fx, 2);
  EXPECT_TRUE(r.has("RH401"));
  EXPECT_EQ(r.worst_severity(), analysis::Severity::kError);
  // With enough workers the static mapping is in range again.
  EXPECT_FALSE(lint_phases(fx, 8).has("RH401"));
}

TEST(FlowLint, EmptyPhaseWarns) {
  const auto fx = analysis::fixtures::bad_empty_phase();
  const analysis::Report r = lint_phases(fx, 2);
  EXPECT_TRUE(r.has("RH402"));
  EXPECT_FALSE(r.has("RH401"));
  EXPECT_EQ(r.worst_severity(), analysis::Severity::kWarning);
}

TEST(FlowLint, CrossPhaseDependencyIsInfoOnly) {
  const auto fx = analysis::fixtures::cross_phase_dep();
  const analysis::Report r = lint_phases(fx, 2);
  EXPECT_TRUE(r.has("RH403"));
  EXPECT_FALSE(r.has("RH401"));
  EXPECT_FALSE(r.has("RH402"));
  // RH403 alone must not raise severity past info.
  bool phase_worse_than_info = false;
  for (const auto& f : r.findings())
    if (f.code.rfind("RH4", 0) == 0 && f.severity > analysis::Severity::kInfo)
      phase_worse_than_info = true;
  EXPECT_FALSE(phase_worse_than_info);
}

TEST(FlowLint, SinglePhaseCoveringFlowIsCleanOfPhaseFindings) {
  const auto base = analysis::fixtures::cross_phase_dep();
  analysis::LintPhase all;
  all.first = 0;
  all.count = base.flow.num_tasks();
  std::vector<analysis::LintPhase> phases{all};
  analysis::LintOptions opts;
  opts.phases = &phases;
  opts.num_workers = 2;
  const analysis::Report r = lint(base.flow, opts);
  EXPECT_FALSE(r.has("RH401"));
  EXPECT_FALSE(r.has("RH402"));
  EXPECT_FALSE(r.has("RH403"));
}

// ---- shipped workloads must lint clean (no warnings or errors) -----------

void expect_clean(const workloads::Workload& wl, std::uint32_t workers) {
  stf::DependencyGraph graph(wl.flow);
  const rt::Mapping mapping = wl.mapping(workers);
  analysis::LintOptions opts;
  opts.mapping = &mapping;
  opts.num_workers = workers;
  const analysis::Report r = analysis::lint_flow(wl.flow, graph, opts);
  if (r.worst_severity() >= analysis::Severity::kWarning) {
    std::ostringstream os;
    r.print(os);
    ADD_FAILURE() << "workload '" << wl.name
                  << "' is not lint-clean:\n" << os.str();
  }
}

TEST(FlowLint, ShippedWorkloadsAreClean) {
  {
    workloads::IndependentSpec s;
    s.num_tasks = 64;
    s.num_workers = 2;
    expect_clean(workloads::make_independent(s), 2);
  }
  {
    workloads::RandomDepsSpec s;
    s.num_tasks = 96;
    s.num_data = 24;  // small enough that every object is surely drawn
    s.num_workers = 2;
    expect_clean(workloads::make_random_deps(s), 2);
  }
  {
    workloads::GemmDagSpec s;
    s.tiles = 4;
    s.num_workers = 2;
    expect_clean(workloads::make_gemm_dag(s), 2);
  }
  {
    workloads::LuDagSpec s;
    s.row_tiles = 4;
    s.col_tiles = 4;
    s.num_workers = 2;
    expect_clean(workloads::make_lu_dag(s), 2);
  }
  {
    workloads::CholeskyDagSpec s;
    s.tiles = 4;
    s.num_workers = 2;
    expect_clean(workloads::make_cholesky_dag(s), 2);
  }
  {
    workloads::StencilSpec s;
    s.chunks = 6;
    s.steps = 4;
    s.num_workers = 2;
    expect_clean(workloads::make_stencil_dag(s), 2);
  }
}

TEST(FlowLint, TaskBenchPatternsAreClean) {
  for (auto p : workloads::kAllTaskBenchPatterns) {
    workloads::TaskBenchSpec s;
    s.pattern = p;
    s.width = 6;
    s.steps = 4;
    s.num_workers = 2;
    expect_clean(workloads::make_taskbench(s), 2);
  }
}

// ---- happens-before checker ----------------------------------------------

TEST(HbChecker, EmptySyncTraceWarns) {
  stf::TaskFlow flow;
  auto x = flow.create_data<double>("x", 4);
  flow.add_virtual(1, {stf::readwrite(x)}, "t");
  const analysis::Report r =
      analysis::check_happens_before(flow, stf::SyncTrace{});
  EXPECT_TRUE(r.has("RC302"));
}

TEST(HbChecker, InjectedRaceCaughtWhereIntervalCheckPasses) {
  const auto fx = analysis::fixtures::injected_race();
  stf::DependencyGraph graph(fx.flow);

  // The wall-clock intervals are disjoint and in dependency order: the
  // interval-overlap validator is fooled.
  const stf::ValidationResult vr = fx.trace.validate(fx.flow, graph, false);
  EXPECT_TRUE(vr.ok()) << vr.reason;
  EXPECT_TRUE(vr.fully_checked());

  // The happens-before checker is not.
  const analysis::Report r =
      analysis::check_happens_before(fx.flow, fx.sync);
  ASSERT_TRUE(r.has("RC301"));
  EXPECT_EQ(r.worst_severity(), analysis::Severity::kError);
}

TEST(HbChecker, OrderedWritesAreNotARace) {
  stf::TaskFlow flow;
  auto d = flow.create_data<double>("d", 4);
  flow.add_virtual(1, {stf::write(d)}, "w0");
  flow.add_virtual(1, {stf::write(d)}, "w1");
  // Proper order: w0 releases before w1 acquires.
  stf::SyncTrace sync;
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kAcquire, 0});
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kRelease, 1});
  sync.record({1, 1, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kAcquire, 2});
  sync.record({1, 1, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kRelease, 3});
  EXPECT_FALSE(analysis::check_happens_before(flow, sync).has("RC301"));
}

TEST(HbChecker, UnorderedReadWritePairIsARace) {
  stf::TaskFlow flow;
  auto d = flow.create_data<double>("d", 4);
  flow.add_virtual(1, {stf::write(d)}, "writer");
  flow.add_virtual(1, {stf::read(d)}, "reader");
  stf::SyncTrace sync;  // both acquire before either releases
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kAcquire, 0});
  sync.record({1, 1, d.id, stf::AccessMode::kRead,
               stf::SyncKind::kAcquire, 1});
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kRelease, 2});
  sync.record({1, 1, d.id, stf::AccessMode::kRead,
               stf::SyncKind::kRelease, 3});
  EXPECT_TRUE(analysis::check_happens_before(flow, sync).has("RC301"));
}

TEST(HbChecker, ConcurrentReadersAreNotARace) {
  stf::TaskFlow flow;
  auto d = flow.create_data<double>("d", 4);
  flow.add_virtual(1, {stf::write(d)}, "init");
  flow.add_virtual(1, {stf::read(d)}, "r0");
  flow.add_virtual(1, {stf::read(d)}, "r1");
  stf::SyncTrace sync;
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kAcquire, 0});
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kRelease, 1});
  // Both readers overlap each other, but both saw init's release.
  sync.record({1, 0, d.id, stf::AccessMode::kRead,
               stf::SyncKind::kAcquire, 2});
  sync.record({2, 1, d.id, stf::AccessMode::kRead,
               stf::SyncKind::kAcquire, 3});
  sync.record({1, 0, d.id, stf::AccessMode::kRead,
               stf::SyncKind::kRelease, 4});
  sync.record({2, 1, d.id, stf::AccessMode::kRead,
               stf::SyncKind::kRelease, 5});
  EXPECT_FALSE(analysis::check_happens_before(flow, sync).has("RC301"));
}

TEST(HbChecker, MissingTasksAreReported) {
  stf::TaskFlow flow;
  auto d = flow.create_data<double>("d", 4);
  flow.add_virtual(1, {stf::write(d)}, "recorded");
  flow.add_virtual(1, {stf::read(d)}, "missing");
  stf::SyncTrace sync;
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kAcquire, 0});
  sync.record({0, 0, d.id, stf::AccessMode::kWrite,
               stf::SyncKind::kRelease, 1});
  EXPECT_TRUE(analysis::check_happens_before(flow, sync).has("RC304"));
}

// ---- end-to-end: real engines record sound sync traces --------------------

stf::TaskFlow make_chained_flow() {
  workloads::StencilSpec s;
  s.chunks = 4;
  s.steps = 6;
  s.task_cost = 64;
  s.body = workloads::BodyKind::kCounter;
  return std::move(workloads::make_stencil_dag(s).flow);
}

TEST(HbChecker, RioRecordedRunHasNoRaces) {
  stf::TaskFlow flow = make_chained_flow();
  rt::Runtime engine(engine::Launch{.workers = 2, .collect_sync = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  engine.run(image, rt::mapping::round_robin(2));
  ASSERT_FALSE(engine.sync_trace().empty());
  const analysis::Report r =
      analysis::check_happens_before(flow, engine.sync_trace());
  std::ostringstream os;
  r.print(os);
  EXPECT_FALSE(r.has("RC301")) << os.str();
  EXPECT_FALSE(r.has("RC304")) << os.str();
}

TEST(HbChecker, CoorRecordedRunHasNoRaces) {
  stf::TaskFlow flow = make_chained_flow();
  coor::Runtime engine(engine::Launch{.workers = 2, .collect_sync = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  engine.run(image);
  ASSERT_FALSE(engine.sync_trace().empty());
  const analysis::Report r =
      analysis::check_happens_before(flow, engine.sync_trace());
  std::ostringstream os;
  r.print(os);
  EXPECT_FALSE(r.has("RC301")) << os.str();
  EXPECT_FALSE(r.has("RC304")) << os.str();
}

TEST(HbChecker, SyncRecordingIsOffByDefault) {
  stf::TaskFlow flow = make_chained_flow();
  rt::Runtime engine(engine::Launch{.workers = 2});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  engine.run(image, rt::mapping::round_robin(2));
  EXPECT_TRUE(engine.sync_trace().empty());
}

}  // namespace
}  // namespace rio
