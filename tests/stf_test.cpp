// Unit tests for the STF programming-model layer: flow building, dependency
// analysis, the sequential reference executor and the trace validator.
#include <gtest/gtest.h>

#include "stf/stf.hpp"

namespace {

using namespace rio;
using namespace rio::stf;

// --------------------------------------------------------------- builder ---

TEST(TaskFlow, AssignsIdsInSubmissionOrder) {
  TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 5; ++i)
    flow.add("t" + std::to_string(i), [](TaskContext&) {}, {readwrite(d)});
  ASSERT_EQ(flow.num_tasks(), 5u);
  for (TaskId t = 0; t < 5; ++t) EXPECT_EQ(flow.task(t).id, t);
}

TEST(TaskFlow, RegistersAndResolvesData) {
  TaskFlow flow;
  auto a = flow.create_data<double>("a", 16);
  int external = 99;
  auto b = flow.attach_data<int>("b", &external);
  EXPECT_EQ(flow.num_data(), 2u);
  EXPECT_EQ(flow.registry().name(a.id), "a");
  EXPECT_EQ(flow.registry().bytes(a.id), 16 * sizeof(double));
  EXPECT_EQ(flow.registry().typed<int>(b), &external);
}

TEST(TaskFlow, FromProgramMaterializes) {
  auto flow = TaskFlow::from_program([](SubmitSink& sink) {
    for (int i = 0; i < 3; ++i) sink.submit({}, {}, 10, "p" + std::to_string(i));
  });
  ASSERT_EQ(flow.num_tasks(), 3u);
  EXPECT_EQ(flow.task(1).name, "p1");
  EXPECT_EQ(flow.total_cost(), 30u);
}

TEST(TaskFlow, VirtualTasksHaveNoBody) {
  TaskFlow flow;
  flow.add_virtual(100, {});
  EXPECT_FALSE(static_cast<bool>(flow.task(0).fn));
  EXPECT_EQ(flow.task(0).cost, 100u);
}

TEST(Task, FindsAccessAndDetectsWrites) {
  TaskFlow flow;
  auto a = flow.create_data<int>("a");
  auto b = flow.create_data<int>("b");
  flow.add("t", {}, {read(a), write(b)});
  const Task& t = flow.task(0);
  AccessMode m{};
  EXPECT_TRUE(t.finds_access(a.id, m));
  EXPECT_EQ(m, AccessMode::kRead);
  EXPECT_TRUE(t.finds_access(b.id, m));
  EXPECT_EQ(m, AccessMode::kWrite);
  EXPECT_TRUE(t.has_write());
}

// --------------------------------------------------------- access modes ----

TEST(AccessMode, ReadWriteClassification) {
  EXPECT_TRUE(is_read(AccessMode::kRead));
  EXPECT_FALSE(is_write(AccessMode::kRead));
  EXPECT_TRUE(is_write(AccessMode::kWrite));
  EXPECT_FALSE(is_read(AccessMode::kWrite));
  EXPECT_TRUE(is_read(AccessMode::kReadWrite));
  EXPECT_TRUE(is_write(AccessMode::kReadWrite));
}

// ------------------------------------------------------------ dependency ---

// Builds a flow with the given access pattern on a single data object and
// returns its DAG.
TaskFlow single_data_flow(const std::vector<AccessMode>& modes) {
  TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (AccessMode m : modes) {
    Access a{d.id, m};
    flow.add("", {}, {a});
  }
  return flow;
}

TEST(DependencyGraph, ReadAfterWrite) {
  auto flow = single_data_flow({AccessMode::kWrite, AccessMode::kRead});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(1), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.successors(0), (std::vector<TaskId>{1}));
}

TEST(DependencyGraph, ConcurrentReadsShareOneProducer) {
  auto flow = single_data_flow(
      {AccessMode::kWrite, AccessMode::kRead, AccessMode::kRead});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(1), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.predecessors(2), (std::vector<TaskId>{0}));
  // The two reads are NOT ordered against each other.
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DependencyGraph, WriteAfterReadsAndWrite) {
  auto flow = single_data_flow({AccessMode::kWrite, AccessMode::kRead,
                                AccessMode::kRead, AccessMode::kWrite});
  DependencyGraph g(flow);
  // Final write waits on both reads and the original write.
  EXPECT_EQ(g.predecessors(3), (std::vector<TaskId>{0, 1, 2}));
}

TEST(DependencyGraph, WriteAfterWriteChains) {
  auto flow = single_data_flow(
      {AccessMode::kWrite, AccessMode::kWrite, AccessMode::kWrite});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(1), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.predecessors(2), (std::vector<TaskId>{1}));
}

TEST(DependencyGraph, ReadWriteActsAsBoth) {
  auto flow = single_data_flow(
      {AccessMode::kWrite, AccessMode::kReadWrite, AccessMode::kRead});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(1), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.predecessors(2), (std::vector<TaskId>{1}));
}

TEST(DependencyGraph, DeduplicatesSharedProducer) {
  TaskFlow flow;
  auto a = flow.create_data<int>("a");
  auto b = flow.create_data<int>("b");
  flow.add("w", {}, {write(a), write(b)});
  flow.add("r", {}, {read(a), read(b)});
  DependencyGraph g(flow);
  EXPECT_EQ(g.predecessors(1), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DependencyGraph, IndependentTasksHaveNoEdges) {
  TaskFlow flow;
  for (int i = 0; i < 10; ++i) flow.add("", {}, {});
  DependencyGraph g(flow);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_ready_width(), 10u);
}

TEST(DependencyGraph, CriticalPathOfAChain) {
  TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 4; ++i) flow.add_virtual(10, {readwrite(d)});
  DependencyGraph g(flow);
  EXPECT_EQ(g.critical_path_cost(flow), 40u);
  EXPECT_EQ(g.max_ready_width(), 1u);
}

TEST(DependencyGraph, CriticalPathOfIndependentTasks) {
  TaskFlow flow;
  for (int i = 0; i < 4; ++i) flow.add_virtual(10, {});
  DependencyGraph g(flow);
  EXPECT_EQ(g.critical_path_cost(flow), 10u);
}

// ------------------------------------------------------------ sequential ---

TEST(SequentialExecutor, RunsTasksInOrderWithEffects) {
  TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 1; i <= 4; ++i)
    flow.add("mul", [d, i](TaskContext& ctx) { ctx.scalar(d) =
                        ctx.scalar(d) * 10 + i; },
             {readwrite(d)});
  const FlowImage image = FlowImage::compile(flow);
  auto stats = SequentialExecutor{}.run(image);
  EXPECT_EQ(flow.registry().typed<int>(d)[0], 1234);
  EXPECT_EQ(stats.tasks_executed(), 4u);
  EXPECT_EQ(stats.num_workers(), 1u);
}

TEST(SequentialExecutor, SkipsBodylessTasks) {
  TaskFlow flow;
  flow.add_virtual(100, {});
  flow.add("real", [](TaskContext&) {}, {});
  const FlowImage image = FlowImage::compile(flow);
  auto stats = SequentialExecutor{}.run(image);
  EXPECT_EQ(stats.tasks_executed(), 1u);
}

// ----------------------------------------------------------------- trace ---

// A tiny W->R->W flow used to craft valid and invalid traces by hand.
struct TraceFixture : ::testing::Test {
  TaskFlow flow;
  void SetUp() override {
    auto d = flow.create_data<int>("d");
    flow.add("w0", {}, {write(d)});
    flow.add("r1", {}, {read(d)});
    flow.add("w2", {}, {write(d)});
  }
};

TEST_F(TraceFixture, AcceptsSequentialExecution) {
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 0, 10, 0});
  tr.record({1, 1, 10, 20, 1});
  tr.record({2, 0, 20, 30, 2});
  EXPECT_TRUE(tr.validate(flow, g, true).ok());
}

TEST_F(TraceFixture, RejectsMissingTask) {
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 0, 10, 0});
  tr.record({1, 1, 10, 20, 1});
  const auto r = tr.validate(flow, g, false);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.reason.find("never executed"), std::string::npos);
}

TEST_F(TraceFixture, RejectsDoubleExecution) {
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 0, 10, 0});
  tr.record({0, 1, 10, 20, 1});
  tr.record({1, 1, 20, 30, 2});
  tr.record({2, 0, 30, 40, 3});
  EXPECT_FALSE(tr.validate(flow, g, false).ok());
}

TEST_F(TraceFixture, RejectsDependencyViolation) {
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 5, 10, 0});
  tr.record({1, 1, 2, 4, 1});  // read started before the write finished
  tr.record({2, 0, 20, 30, 2});
  const auto r = tr.validate(flow, g, false);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.reason.find("dependency"), std::string::npos);
}

TEST_F(TraceFixture, RejectsOutOfOrderWorkerWhenRequired) {
  DependencyGraph g(flow);
  Trace tr;
  // Worker 0 runs task 2 (seq 1) before task... craft: worker 0 executes
  // tasks 0 and 2 but with seq order swapped.
  tr.record({0, 0, 0, 10, 5});
  tr.record({1, 1, 10, 20, 6});
  tr.record({2, 0, 20, 30, 2});  // seq 2 < seq 5: task 2 "before" task 0
  EXPECT_FALSE(tr.validate(flow, g, true).ok());
  EXPECT_TRUE(tr.validate(flow, g, false).ok());
}

TEST(TraceRace, DetectsOverlappingConflict) {
  TaskFlow flow;
  auto d = flow.create_data<int>("d");
  flow.add("r", {}, {read(d)});
  flow.add("r2", {}, {read(d)});
  flow.add("w", {}, {write(d)});
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 0, 10, 0});
  tr.record({1, 1, 0, 10, 1});   // two reads overlapping: fine
  tr.record({2, 2, 5, 15, 2});   // write overlaps the reads: race
  const auto r = tr.validate(flow, g, false);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.reason.find("data race"), std::string::npos);
}

TEST(TraceRace, AllowsConcurrentReaders) {
  TaskFlow flow;
  auto d = flow.create_data<int>("d");
  flow.add("r", {}, {read(d)});
  flow.add("r2", {}, {read(d)});
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 0, 10, 0});
  tr.record({1, 1, 0, 10, 1});
  EXPECT_TRUE(tr.validate(flow, g, false).ok());
}

TEST_F(TraceFixture, ZeroTimestampsAreSkippedNotValidated) {
  // An engine that records no clocks (all start/end zero) used to sail
  // through the race and dependency checks; it must now say it skipped
  // them.
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 0, 0, 0});
  tr.record({1, 1, 0, 0, 1});
  tr.record({2, 0, 0, 0, 2});
  const auto r = tr.validate(flow, g, false);
  EXPECT_TRUE(r.ok());  // structural checks still passed
  EXPECT_FALSE(r.timing_checked);
  EXPECT_FALSE(r.fully_checked());
  EXPECT_NE(r.reason.find("timestamps unavailable"), std::string::npos);
}

TEST_F(TraceFixture, TimedTraceReportsFullyChecked) {
  DependencyGraph g(flow);
  Trace tr;
  tr.record({0, 0, 0, 10, 0});
  tr.record({1, 1, 10, 20, 1});
  tr.record({2, 0, 20, 30, 2});
  const auto r = tr.validate(flow, g, false);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.fully_checked());
}

// ---------------------------------------------------------- access guard ---

TEST(AccessGuard, AllowsConcurrentReaders) {
  AccessGuard guard;
  guard.enable(1);
  Access r{0, AccessMode::kRead};
  guard.acquire(r);
  guard.acquire(r);
  guard.release(r);
  guard.release(r);
}

TEST(AccessGuardDeath, AbortsOnWriteDuringRead) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AccessGuard guard;
  guard.enable(1);
  Access r{0, AccessMode::kRead};
  Access w{0, AccessMode::kWrite};
  guard.acquire(r);
  EXPECT_DEATH(guard.acquire(w), "data race");
  guard.release(r);
}

TEST(AccessGuard, DisabledGuardIsNoop) {
  AccessGuard guard;
  Access w{0, AccessMode::kWrite};
  guard.acquire(w);  // would index out of bounds if not disabled
  guard.release(w);
  EXPECT_FALSE(guard.enabled());
}

}  // namespace
