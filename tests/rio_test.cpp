// Tests for the RIO decentralized in-order runtime: Algorithm 1/2 protocol
// correctness, trace validity, streaming replay and task pruning.
//
// Every parallel assertion here runs on a potentially single-core host, so
// correctness must come from the protocol, not from scheduling luck; the
// yielding/blocking wait policies keep oversubscribed runs live.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "recorded_trace.hpp"
#include "rio/rio.hpp"
#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;
using rio::engine::Launch;
using rio::rt::Mapping;
using rio::rt::Runtime;
using rio::support::WaitPolicy;

// ------------------------------------------------------------- protocol ----

TEST(DataObject, DeclareTracksLocalState) {
  rt::LocalDataState local;
  rt::declare_read(local);
  rt::declare_read(local);
  EXPECT_EQ(local.nb_reads_since_write, 2u);
  rt::declare_write(local, 7);
  EXPECT_EQ(local.nb_reads_since_write, 0u);
  EXPECT_EQ(local.last_registered_write, 7u);
}

TEST(DataObject, FreshStatesAgree) {
  rt::SharedDataState shared;
  rt::LocalDataState local;
  // A read with no prior write must not block.
  EXPECT_FALSE(rt::get_read(shared, local, WaitPolicy::kSpinYield));
  EXPECT_FALSE(rt::get_write(shared, local, WaitPolicy::kSpinYield));
}

TEST(DataObject, TerminateWritePublishes) {
  rt::SharedDataState shared;
  rt::LocalDataState writer_local;
  rt::terminate_write(shared, writer_local, 3, WaitPolicy::kSpinYield);
  EXPECT_EQ(shared.last_executed_write.value.load(), 3u);
  EXPECT_EQ(shared.nb_reads_since_write.value.load(), 0u);
  EXPECT_EQ(writer_local.last_registered_write, 3u);

  // An observer that registered the same write passes immediately.
  rt::LocalDataState observer;
  rt::declare_write(observer, 3);
  EXPECT_FALSE(rt::get_read(shared, observer, WaitPolicy::kSpinYield));
}

TEST(DataObject, TerminateReadCounts) {
  rt::SharedDataState shared;
  rt::LocalDataState local;
  rt::terminate_read(shared, local, WaitPolicy::kSpinYield);
  rt::terminate_read(shared, local, WaitPolicy::kSpinYield);
  EXPECT_EQ(shared.nb_reads_since_write.value.load(), 2u);
  EXPECT_EQ(local.nb_reads_since_write, 2u);
}

// ------------------------------------------------------ basic execution ----

TEST(Runtime, ExecutesEveryTaskExactlyOnce) {
  stf::TaskFlow flow;
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i)
    flow.add("t", [&hits](stf::TaskContext&) { hits.fetch_add(1); }, {});
  Runtime rt(Launch{.workers = 4});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto stats = rt.run(image, rt::mapping::round_robin(4));
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(stats.tasks_executed(), 100u);
  // Everyone else declared the rest: (p-1) skips per task.
  std::uint64_t skipped = 0;
  for (auto& w : stats.workers) skipped += w.tasks_skipped;
  EXPECT_EQ(skipped, 300u);
}

TEST(Runtime, SingleWorkerDegeneratesToSequential) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 1; i <= 5; ++i)
    flow.add("step",
             [d, i](stf::TaskContext& ctx) { ctx.scalar(d) = ctx.scalar(d) * 10 + i; },
             {stf::readwrite(d)});
  Runtime rt(Launch{.workers = 1});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt.run(image, rt::mapping::single());
  EXPECT_EQ(flow.registry().typed<int>(d)[0], 12345);
}

TEST(Runtime, ChainAcrossWorkersRespectsOrder) {
  // A strict RW chain alternating between two workers: the final value
  // proves every link waited for its predecessor.
  stf::TaskFlow flow;
  auto d = flow.create_data<std::uint64_t>("d");
  constexpr int kLinks = 64;
  for (int i = 0; i < kLinks; ++i)
    flow.add("link",
             [d](stf::TaskContext& ctx) { ctx.scalar(d) += 1; },
             {stf::readwrite(d)});
  Runtime rt(Launch{.workers = 2, .enable_guard = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt.run(image, rt::mapping::round_robin(2));
  EXPECT_EQ(flow.registry().typed<std::uint64_t>(d)[0],
            static_cast<std::uint64_t>(kLinks));
}

TEST(Runtime, FanOutReadersAllSeeTheWrite) {
  stf::TaskFlow flow;
  auto src = flow.create_data<int>("src");
  auto sums = flow.create_data<std::uint64_t>("sums", 8);
  flow.add("produce", [src](stf::TaskContext& ctx) { ctx.scalar(src) = 41; },
           {stf::write(src)});
  for (int r = 0; r < 8; ++r)
    flow.add("consume",
             [src, sums, r](stf::TaskContext& ctx) {
               ctx.get(sums)[r] =
                   static_cast<std::uint64_t>(ctx.scalar(src, stf::AccessMode::kRead)) + 1;
             },
             {stf::read(src), stf::readwrite(sums)});
  // NOTE: all consumers also RW the sums buffer, serializing them — the
  // point here is the producer/consumer write visibility.
  Runtime rt(Launch{.workers = 3, .enable_guard = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt.run(image, rt::mapping::round_robin(3));
  const auto* s = flow.registry().typed<std::uint64_t>(sums);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(s[r], 42u);
}

TEST(Runtime, WriteWaitsForAllReaders) {
  // W r r r W pattern: the second write must observe all three reads done.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  auto out = flow.create_data<int>("out", 3);
  flow.add("w0", [d](stf::TaskContext& ctx) { ctx.scalar(d) = 7; },
           {stf::write(d)});
  for (int r = 0; r < 3; ++r)
    flow.add("read",
             [d, out, r](stf::TaskContext& ctx) {
               ctx.get(out)[r] = ctx.scalar(d, stf::AccessMode::kRead);
             },
             {stf::read(d), stf::readwrite(out)});
  flow.add("w1", [d](stf::TaskContext& ctx) { ctx.scalar(d) = 9; },
           {stf::write(d)});
  Runtime rt(Launch{.workers = 4, .enable_guard = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt.run(image, rt::mapping::round_robin(4));
  const int* o = flow.registry().typed<int>(out);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(o[r], 7);  // readers saw w0, not w1
  EXPECT_EQ(flow.registry().typed<int>(d)[0], 9);
}

// ------------------------------------------------- property: vs oracle -----

// Runs a workload under RIO with a recorder + guard, checks the recorded
// trace against the DAG, and compares all data against the sequential
// oracle.
void check_against_oracle(stf::TaskFlow& parallel_flow,
                          stf::TaskFlow& sequential_flow,
                          std::uint32_t workers, WaitPolicy policy,
                          const Mapping& mapping) {
  const stf::FlowImage seq_image = stf::FlowImage::compile(sequential_flow);
  stf::SequentialExecutor{}.run(seq_image);

  obs::Hub hub(stf::trace_recorder(parallel_flow.num_tasks()));
  Runtime rt(Launch{.workers = workers,
                    .wait_policy = policy,
                    .enable_guard = true,
                    .obs = &hub});
  const stf::FlowImage parallel_image = stf::FlowImage::compile(parallel_flow);
  rt.run(parallel_image, mapping);

  stf::DependencyGraph graph(parallel_flow);
  const auto validation =
      testutil::recorded_trace(hub).validate(parallel_flow, graph, true);
  ASSERT_TRUE(validation.ok()) << validation.reason;

  // Compare every data object byte-wise.
  const auto& pr = parallel_flow.registry();
  const auto& sr = sequential_flow.registry();
  ASSERT_EQ(pr.size(), sr.size());
  for (stf::DataId d = 0; d < pr.size(); ++d) {
    ASSERT_EQ(pr.bytes(d), sr.bytes(d));
    EXPECT_EQ(std::memcmp(pr.raw(d), sr.raw(d), pr.bytes(d)), 0)
        << "data object " << d << " (" << pr.name(d) << ") diverged";
  }
}

struct RandomGraphParam {
  std::uint64_t seed;
  std::uint32_t workers;
  WaitPolicy policy;
};

class RioRandomGraph : public ::testing::TestWithParam<RandomGraphParam> {};

// The counter bodies never touch the data objects, so to make the oracle
// comparison meaningful we use bodies that mutate the written objects in an
// order-sensitive way.
workloads::Workload make_order_sensitive_random(std::uint64_t seed,
                                                std::uint32_t workers) {
  workloads::RandomDepsSpec spec;
  spec.num_tasks = 400;
  spec.num_data = 32;
  spec.task_cost = 50;
  spec.body = workloads::BodyKind::kNone;
  spec.seed = seed;
  spec.num_workers = workers;
  auto w = workloads::make_random_deps(spec);
  // Replace bodies: fold the task id into every written object. The final
  // value of each object is then a function of the exact write order.
  stf::TaskFlow rebuilt;
  std::vector<stf::DataHandle<std::uint64_t>> data;
  for (std::uint32_t d = 0; d < spec.num_data; ++d)
    data.push_back(rebuilt.create_data<std::uint64_t>("d" + std::to_string(d)));
  for (const stf::Task& t : w.flow.tasks()) {
    stf::AccessList acc = t.accesses;
    const stf::TaskId id = t.id;
    std::vector<stf::DataId> written, readed;
    for (const auto& a : t.accesses)
      (is_write(a.mode) ? written : readed).push_back(a.data);
    rebuilt.add(
        t.name,
        [written, readed, id](stf::TaskContext& ctx) {
          std::uint64_t acc_val = id + 1;
          for (stf::DataId rd : readed)
            acc_val ^= *static_cast<const std::uint64_t*>(
                ctx.registry().raw(rd));
          for (stf::DataId wr : written) {
            auto* p = static_cast<std::uint64_t*>(ctx.registry().raw(wr));
            *p = *p * 1000003u + acc_val;
          }
        },
        std::move(acc), t.cost);
  }
  workloads::Workload out;
  out.name = w.name;
  out.flow = std::move(rebuilt);
  out.owners = w.owners;
  return out;
}

TEST_P(RioRandomGraph, MatchesSequentialOracle) {
  const auto param = GetParam();
  auto parallel = make_order_sensitive_random(param.seed, param.workers);
  auto sequential = make_order_sensitive_random(param.seed, param.workers);
  check_against_oracle(parallel.flow, sequential.flow, param.workers,
                       param.policy, parallel.mapping(param.workers));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RioRandomGraph,
    ::testing::Values(RandomGraphParam{1, 2, WaitPolicy::kSpinYield},
                      RandomGraphParam{2, 3, WaitPolicy::kSpinYield},
                      RandomGraphParam{3, 4, WaitPolicy::kBlock},
                      RandomGraphParam{4, 2, WaitPolicy::kBlock},
                      RandomGraphParam{5, 5, WaitPolicy::kSpinYield},
                      RandomGraphParam{6, 8, WaitPolicy::kBlock},
                      RandomGraphParam{7, 3, WaitPolicy::kSpinYield},
                      RandomGraphParam{8, 2, WaitPolicy::kSpinYield}));

// ------------------------------------------------------ numeric oracles ----

TEST(RioNumeric, TiledGemmMatchesSequential) {
  constexpr std::uint32_t nt = 3, dim = 8, workers = 3;
  workloads::TiledMatrix a1(nt, dim), b1(nt, dim), c1(nt, dim);
  workloads::TiledMatrix a2(nt, dim), b2(nt, dim), c2(nt, dim);
  a1.fill_random(1);
  b1.fill_random(2);
  a2.fill_random(1);
  b2.fill_random(2);

  auto wl_seq = workloads::make_gemm_numeric(a1, b1, c1);
  const stf::FlowImage seq_image = stf::FlowImage::compile(wl_seq.flow);
  stf::SequentialExecutor{}.run(seq_image);

  auto wl_par = workloads::make_gemm_numeric(a2, b2, c2, workers);
  Runtime rt(Launch{.workers = workers, .enable_guard = true});
  const stf::FlowImage par_image = stf::FlowImage::compile(wl_par.flow);
  rt.run(par_image, wl_par.mapping(workers));

  EXPECT_EQ(c1.max_abs_diff(c2), 0.0);
}

TEST(RioNumeric, TiledLuMatchesSequential) {
  constexpr std::uint32_t nt = 3, dim = 8, workers = 4;
  workloads::TiledMatrix a1(nt, dim), a2(nt, dim);
  a1.fill_random_diagonally_dominant(11);
  a2.fill_random_diagonally_dominant(11);

  auto wl_seq = workloads::make_lu_numeric(a1);
  const stf::FlowImage seq_image = stf::FlowImage::compile(wl_seq.flow);
  stf::SequentialExecutor{}.run(seq_image);

  auto wl_par = workloads::make_lu_numeric(a2, workers);
  Runtime rt(Launch{.workers = workers, .enable_guard = true});
  const stf::FlowImage par_image = stf::FlowImage::compile(wl_par.flow);
  rt.run(par_image, wl_par.mapping(workers));

  EXPECT_EQ(a1.max_abs_diff(a2), 0.0);
}

TEST(RioNumeric, TiledCholeskyMatchesSequential) {
  constexpr std::uint32_t nt = 3, dim = 8, workers = 2;
  workloads::TiledMatrix a1(nt, dim), a2(nt, dim);
  a1.fill_random_diagonally_dominant(21);
  a1.symmetrize();
  a2.fill_random_diagonally_dominant(21);
  a2.symmetrize();

  auto wl_seq = workloads::make_cholesky_numeric(a1);
  const stf::FlowImage seq_image = stf::FlowImage::compile(wl_seq.flow);
  stf::SequentialExecutor{}.run(seq_image);

  auto wl_par = workloads::make_cholesky_numeric(a2, workers);
  Runtime rt(Launch{.workers = workers, .enable_guard = true});
  const stf::FlowImage par_image = stf::FlowImage::compile(wl_par.flow);
  rt.run(par_image, wl_par.mapping(workers));

  EXPECT_EQ(a1.max_abs_diff(a2), 0.0);
}

TEST(RioNumeric, StencilMatchesSequential) {
  constexpr std::uint32_t chunks = 8, len = 16, steps = 5, workers = 3;
  std::vector<double> a1(chunks * len), b1(chunks * len);
  std::vector<double> a2(chunks * len), b2(chunks * len);
  for (std::size_t i = 0; i < a1.size(); ++i)
    a1[i] = a2[i] = static_cast<double>(i % 17) - 8.0;

  auto wl_seq = workloads::make_stencil_numeric(chunks, len, steps, a1, b1);
  const stf::FlowImage seq_image = stf::FlowImage::compile(wl_seq.flow);
  stf::SequentialExecutor{}.run(seq_image);

  auto wl_par =
      workloads::make_stencil_numeric(chunks, len, steps, a2, b2, workers);
  Runtime rt(Launch{.workers = workers, .enable_guard = true});
  const stf::FlowImage par_image = stf::FlowImage::compile(wl_par.flow);
  rt.run(par_image, wl_par.mapping(workers));

  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1[i], a2[i]) << "buffer A diverged at " << i;
    EXPECT_EQ(b1[i], b2[i]) << "buffer B diverged at " << i;
  }
}

// -------------------------------------------------------- streaming mode ---

TEST(RunProgram, StreamingMatchesMaterialized) {
  // The same deterministic program executed (a) materialized and run by
  // RIO, (b) streamed by every worker. Results must agree.
  constexpr std::uint32_t workers = 3;
  constexpr int kTasks = 120;

  auto make_data = [](stf::TaskFlow& flow_or_reg,
                      std::vector<stf::DataHandle<std::uint64_t>>& out) {
    for (int d = 0; d < 5; ++d)
      out.push_back(flow_or_reg.create_data<std::uint64_t>(
          "d" + std::to_string(d)));
  };

  auto program = [&](std::vector<stf::DataHandle<std::uint64_t>> data) {
    return [data](stf::SubmitSink& sink) {
      for (int i = 0; i < kTasks; ++i) {
        const auto d = data[i % data.size()];
        const auto s = data[(i + 2) % data.size()];  // always distinct
        sink.submit(
            [d, s](stf::TaskContext& ctx) {
              ctx.scalar(d) = ctx.scalar(d) * 31 +
                              ctx.scalar(s, stf::AccessMode::kRead) + 1;
            },
            {stf::read(s), stf::readwrite(d)}, 10, "");
      }
    };
  };

  // (a) materialized
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> data_a;
  make_data(flow, data_a);
  program(data_a)(flow);
  Runtime rt_a(Launch{.workers = workers, .enable_guard = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt_a.run(image, rt::mapping::round_robin(workers));

  // (b) streaming over a standalone registry
  stf::DataRegistry registry;
  std::vector<stf::DataHandle<std::uint64_t>> data_b;
  for (int d = 0; d < 5; ++d)
    data_b.push_back(registry.create<std::uint64_t>("d" + std::to_string(d)));
  Runtime rt_b(Launch{.workers = workers, .enable_guard = true});
  rt_b.run_program(registry, program(data_b), rt::mapping::round_robin(workers));

  for (int d = 0; d < 5; ++d) {
    EXPECT_EQ(*registry.typed<std::uint64_t>(data_b[d]),
              *flow.registry().typed<std::uint64_t>(data_a[d]))
        << "object " << d;
  }
}

// --------------------------------------------------------------- pruning ---

TEST(Pruning, PlanPartitionsAllTasks) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 4;
  spec.body = workloads::BodyKind::kNone;
  spec.num_workers = 3;
  auto wl = workloads::make_lu_dag(spec);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rt::PrunedPlan plan(image, wl.mapping(3), 3);
  EXPECT_EQ(plan.total_tasks(), wl.flow.num_tasks());
  std::size_t sum = 0;
  for (std::uint32_t w = 0; w < 3; ++w) sum += plan.tasks_for(w).size();
  EXPECT_EQ(sum, wl.flow.num_tasks());
}

TEST(Pruning, ExpectationsMatchDependencyAnalysis) {
  // For a simple W r r W flow the pruned expectations are fully known.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  flow.add("w0", {}, {stf::write(d)});
  flow.add("r1", {}, {stf::read(d)});
  flow.add("r2", {}, {stf::read(d)});
  flow.add("w3", {}, {stf::write(d)});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt::PrunedPlan plan(image, rt::mapping::single(), 1);
  const auto tasks = plan.tasks_for(0);
  ASSERT_EQ(tasks.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(tasks[i], i);
  // One access per task: seed k belongs to task k.
  EXPECT_EQ(plan.seed(0).expected_writer, rt::kNoWrite);
  EXPECT_EQ(plan.seed(1).expected_writer, 0u);
  EXPECT_EQ(plan.seed(2).expected_writer, 0u);
  EXPECT_EQ(plan.seed(3).expected_writer, 0u);
  EXPECT_EQ(plan.seed(3).expected_reads, 2u);
}

TEST(Pruning, PrunedExecutionMatchesOracle) {
  constexpr std::uint32_t workers = 3;
  auto parallel = make_order_sensitive_random(99, workers);
  auto sequential = make_order_sensitive_random(99, workers);
  const stf::FlowImage seq_image = stf::FlowImage::compile(sequential.flow);
  stf::SequentialExecutor{}.run(seq_image);

  const stf::FlowImage image = stf::FlowImage::compile(parallel.flow);
  Runtime prt(Launch{.workers = workers});
  auto stats = prt.run_pruned(image, parallel.mapping(workers));
  EXPECT_EQ(stats.tasks_executed(), parallel.flow.num_tasks());

  const auto& pr = parallel.flow.registry();
  const auto& sr = sequential.flow.registry();
  for (stf::DataId d = 0; d < pr.size(); ++d)
    EXPECT_EQ(std::memcmp(pr.raw(d), sr.raw(d), pr.bytes(d)), 0)
        << "object " << d;
}

TEST(Pruning, NumericLuThroughPrunedRuntime) {
  constexpr std::uint32_t nt = 4, dim = 6, workers = 4;
  workloads::TiledMatrix a1(nt, dim), a2(nt, dim);
  a1.fill_random_diagonally_dominant(5);
  a2.fill_random_diagonally_dominant(5);

  auto wl_seq = workloads::make_lu_numeric(a1);
  const stf::FlowImage seq_image = stf::FlowImage::compile(wl_seq.flow);
  stf::SequentialExecutor{}.run(seq_image);

  auto wl_par = workloads::make_lu_numeric(a2, workers);
  const stf::FlowImage par_image = stf::FlowImage::compile(wl_par.flow);
  Runtime prt(Launch{.workers = workers});
  prt.run_pruned(par_image, wl_par.mapping(workers));

  EXPECT_EQ(a1.max_abs_diff(a2), 0.0);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, BucketsRoughlyCoverWallTime) {
  workloads::IndependentSpec spec;
  spec.num_tasks = 200;
  spec.task_cost = 20000;
  spec.num_workers = 2;
  auto wl = workloads::make_independent(spec);
  Runtime rt(Launch{.workers = 2});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  auto stats = rt.run(image, wl.mapping(2));
  const auto cum = stats.cumulative();
  EXPECT_GT(cum.task_ns, 0u);
  // tau_p == p * t_p within generous tolerance (oversubscribed host).
  EXPECT_LE(cum.total(), stats.wall_ns * 2 * 3);
  EXPECT_EQ(stats.tasks_executed(), 200u);
}

TEST(Stats, WaitsCountedOnDependencyStalls) {
  // A long chain between two workers must record at least one stall.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 32; ++i)
    flow.add("c", [d](stf::TaskContext& ctx) { ctx.scalar(d) += 1; },
             {stf::readwrite(d)});
  Runtime rt(Launch{.workers = 2});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto stats = rt.run(image, rt::mapping::round_robin(2));
  std::uint64_t waits = 0;
  for (auto& w : stats.workers) waits += w.waits;
  EXPECT_GT(waits, 0u);
}

// ------------------------------------------------------------- mappings ----

TEST(Mapping, RoundRobinCycles) {
  auto m = rt::mapping::round_robin(3);
  EXPECT_EQ(m(0), 0u);
  EXPECT_EQ(m(1), 1u);
  EXPECT_EQ(m(2), 2u);
  EXPECT_EQ(m(3), 0u);
  EXPECT_EQ(m.name(), "round-robin/3");
}

TEST(Mapping, BlockIsContiguousAndClamped) {
  auto m = rt::mapping::block(10, 3);  // blocks of 4: 0..3 -> 0, 4..7 -> 1...
  EXPECT_EQ(m(0), 0u);
  EXPECT_EQ(m(3), 0u);
  EXPECT_EQ(m(4), 1u);
  EXPECT_EQ(m(9), 2u);
}

TEST(Mapping, TableLooksUp) {
  auto m = rt::mapping::table({2, 0, 1});
  EXPECT_EQ(m(0), 2u);
  EXPECT_EQ(m(1), 0u);
  EXPECT_EQ(m(2), 1u);
}

TEST(Mapping, GridPickerIsSquarest) {
  EXPECT_EQ(workloads::pick_grid(1), (std::pair<std::uint32_t, std::uint32_t>{1, 1}));
  EXPECT_EQ(workloads::pick_grid(4), (std::pair<std::uint32_t, std::uint32_t>{2, 2}));
  EXPECT_EQ(workloads::pick_grid(6), (std::pair<std::uint32_t, std::uint32_t>{2, 3}));
  EXPECT_EQ(workloads::pick_grid(7), (std::pair<std::uint32_t, std::uint32_t>{1, 7}));
  EXPECT_EQ(workloads::pick_grid(24), (std::pair<std::uint32_t, std::uint32_t>{4, 6}));
}

TEST(Mapping, CyclicOwnerInRange) {
  for (std::uint32_t i = 0; i < 8; ++i)
    for (std::uint32_t j = 0; j < 8; ++j)
      EXPECT_LT(workloads::cyclic_owner(i, j, 2, 3), 6u);
}

}  // namespace
