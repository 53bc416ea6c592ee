// Tests for the centralized OoO baseline runtime: dependency resolution,
// scheduler variants, stealing, traces and the sequential-consistency
// oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "coor/coor.hpp"
#include "recorded_trace.hpp"
#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;
using coor::Runtime;
using coor::SchedulerKind;
using engine::Launch;

// ------------------------------------------------------------ ReadyQueue ---

TEST(ReadyQueue, FifoOrder) {
  coor::ReadyQueue q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1u);
  EXPECT_EQ(q.pop().value(), 2u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(ReadyQueue, LifoPushGoesFront) {
  coor::ReadyQueue q;
  q.push(1, /*lifo=*/true);
  q.push(2, /*lifo=*/true);
  EXPECT_EQ(q.pop().value(), 2u);
}

TEST(ReadyQueue, StealTakesFromBack) {
  coor::ReadyQueue q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.try_steal().value(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1u);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(ReadyQueue, CloseDrainsThenEnds) {
  coor::ReadyQueue q;
  q.push(5);
  q.close();
  EXPECT_EQ(q.pop().value(), 5u);
  EXPECT_FALSE(q.pop().has_value());
}

// ------------------------------------------------------------- ReadyRing ---

coor::ReadyRing make_ring(std::size_t capacity) {
  return coor::ReadyRing(capacity, [](std::atomic<std::uint64_t>& w,
                                      std::uint64_t v) {
    w.store(v, std::memory_order_relaxed);
  });
}

TEST(ReadyRing, FifoOrderAndEmpty) {
  auto ring = make_ring(8);
  EXPECT_FALSE(ring.try_pop().has_value());
  EXPECT_FALSE(ring.push(1, support::WaitPolicy::kSpinYield));  // nobody parked
  ring.push(2, support::WaitPolicy::kSpinYield);
  ring.push(3, support::WaitPolicy::kSpinYield);
  EXPECT_EQ(ring.try_pop().value(), 1u);
  EXPECT_EQ(ring.try_pop().value(), 2u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.try_pop().value(), 3u);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(ReadyRing, CapacityRoundsUpToPowerOfTwo) {
  auto ring = make_ring(5);  // rounds to 8
  for (std::uint64_t i = 0; i < 8; ++i)
    ring.push(i, support::WaitPolicy::kSpinYield);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(ring.try_pop().value(), i);
}

TEST(ReadyRing, OverflowFailsWithStructuredError) {
  // Sizing-contract violation (more pushes than capacity, nothing popped):
  // the wrap must surface as RingOverflow carrying the sizing facts, not
  // silent value loss or a livelocked chase.
  auto ring = make_ring(4);
  for (std::uint64_t i = 0; i < 4; ++i)
    ring.push(i, support::WaitPolicy::kSpinYield);
  try {
    ring.push(99, support::WaitPolicy::kSpinYield);
    FAIL() << "expected RingOverflow";
  } catch (const coor::RingOverflow& e) {
    EXPECT_EQ(e.capacity(), 4u);
    EXPECT_EQ(e.high_watermark(), 4u);
    EXPECT_NE(std::string(e.what()).find("capacity 4"), std::string::npos);
  }
  // The ring's contents survive the refused push.
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(ring.try_pop().value(), i);
}

TEST(ReadyRing, HighWatermarkTracksPeakOccupancy) {
  auto ring = make_ring(8);
  ring.push(0, support::WaitPolicy::kSpinYield);
  ring.push(1, support::WaitPolicy::kSpinYield);
  ring.push(2, support::WaitPolicy::kSpinYield);
  EXPECT_EQ(ring.high_watermark(), 3u);
  (void)ring.try_pop();
  (void)ring.try_pop();
  ring.push(3, support::WaitPolicy::kSpinYield);
  EXPECT_EQ(ring.high_watermark(), 3u);  // peak, not current (current = 2)
}

TEST(ReadyRing, CloseDrainsThenEnds) {
  auto ring = make_ring(4);
  ring.push(5, support::WaitPolicy::kBlock);
  ring.close(support::WaitPolicy::kBlock);
  EXPECT_EQ(ring.pop_blocking(support::WaitPolicy::kBlock, nullptr).value(),
            5u);
  EXPECT_FALSE(
      ring.pop_blocking(support::WaitPolicy::kBlock, nullptr).has_value());
}

TEST(ReadyRing, CloseWakesParkedBlockConsumer) {
  // The watchdog's abort path on coor: the fire callback close()s the
  // ring. A kBlock consumer parked on the empty ring must return nullopt
  // after close() from another thread, with no push. 50 ms is 10 000 times
  // the 5 µs spin budget, so the consumer is parked when close() comes.
  auto ring = make_ring(4);
  std::atomic<bool> returned{false};
  std::optional<std::uint64_t> popped{99};
  std::thread consumer([&] {
    popped = ring.pop_blocking(support::WaitPolicy::kBlock, nullptr);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());  // parked: nothing to pop, not closed
  ring.close(support::WaitPolicy::kBlock);
  consumer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(popped.has_value());
}

TEST(ReadyRing, MpmcDeliversEveryValueExactlyOnce) {
  // 2 producers x 2 consumers under the block policy: every id arrives
  // exactly once, parked consumers are woken by pushes and by close().
  constexpr std::uint64_t kPerProducer = 2000;
  auto ring = make_ring(2 * kPerProducer);
  std::vector<std::atomic<std::uint32_t>> seen(2 * kPerProducer);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<std::uint32_t> producers_left{2};

  auto produce = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < kPerProducer; ++i)
      ring.push(base + i, support::WaitPolicy::kBlock);
    if (producers_left.fetch_sub(1) == 1)
      ring.close(support::WaitPolicy::kBlock);
  };
  auto consume = [&] {
    while (auto v = ring.pop_blocking(support::WaitPolicy::kBlock, nullptr))
      seen[*v].fetch_add(1);
  };
  std::thread p0(produce, 0), p1(produce, kPerProducer);
  std::thread c0(consume), c1(consume);
  p0.join();
  p1.join();
  c0.join();
  c1.join();
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i].load(), 1u) << "value " << i;
}

// --------------------------------------------------------------- runtime ---

class CoorScheduler
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, bool>> {};

TEST_P(CoorScheduler, ExecutesEveryTaskOnce) {
  const auto [sched, steal] = GetParam();
  stf::TaskFlow flow;
  std::atomic<int> hits{0};
  for (int i = 0; i < 200; ++i)
    flow.add("t", [&hits](stf::TaskContext&) { hits.fetch_add(1); }, {});
  Runtime rt(Launch{.workers = 3, .scheduler = sched,
                    .work_stealing = steal});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto stats = rt.run(image);
  EXPECT_EQ(hits.load(), 200);
  EXPECT_EQ(stats.tasks_executed(), 200u);
}

TEST_P(CoorScheduler, RespectsChainOrder) {
  const auto [sched, steal] = GetParam();
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 1; i <= 6; ++i)
    flow.add("s",
             [d, i](stf::TaskContext& ctx) { ctx.scalar(d) = ctx.scalar(d) * 10 + i; },
             {stf::readwrite(d)});
  Runtime rt(Launch{.workers = 3, .scheduler = sched,
                    .work_stealing = steal, .enable_guard = true});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt.run(image);
  EXPECT_EQ(flow.registry().typed<int>(d)[0], 123456);
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, CoorScheduler,
    ::testing::Values(std::make_tuple(SchedulerKind::kFifo, false),
                      std::make_tuple(SchedulerKind::kLifo, false),
                      std::make_tuple(SchedulerKind::kLocality, false),
                      std::make_tuple(SchedulerKind::kLocality, true)),
    [](const auto& i) {
      return std::string(coor::to_string(std::get<0>(i.param))) +
             (std::get<1>(i.param) ? "Steal" : "NoSteal");
    });

TEST(Coor, EmptyFlowTerminates) {
  stf::TaskFlow flow;
  Runtime rt(Launch{.workers = 2});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  auto stats = rt.run(image);
  EXPECT_EQ(stats.tasks_executed(), 0u);
}

TEST(Coor, TraceIsSequentiallyConsistentButMaybeOutOfOrder) {
  workloads::LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 4;
  spec.task_cost = 200;
  auto wl = workloads::make_lu_dag(spec);
  obs::Hub hub(stf::trace_recorder(wl.flow.num_tasks()));
  Runtime rt(Launch{.workers = 4, .enable_guard = true, .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rt.run(image);
  stf::DependencyGraph graph(wl.flow);
  // OoO: no per-worker in-order requirement, but the DAG must hold.
  const auto r =
      testutil::recorded_trace(hub).validate(wl.flow, graph, false);
  EXPECT_TRUE(r.ok()) << r.reason;
}

TEST(Coor, MasterStatsAreRuntimeOnly) {
  workloads::IndependentSpec spec;
  spec.num_tasks = 500;
  spec.task_cost = 5000;
  auto wl = workloads::make_independent(spec);
  Runtime rt(Launch{.workers = 2});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  auto stats = rt.run(image);
  ASSERT_EQ(stats.workers.size(), 3u);  // 2 workers + master
  const auto& master = stats.workers[2];
  EXPECT_EQ(master.buckets.task_ns, 0u);
  EXPECT_GT(master.buckets.runtime_ns, 0u);
  EXPECT_EQ(master.tasks_executed, 0u);
}

// Oracle comparison on the random-dependency workload across schedulers.
class CoorOracle : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(CoorOracle, RandomGraphMatchesSequential) {
  // Order-sensitive bodies: fold task ids into written objects.
  auto make = [](std::uint64_t seed) {
    workloads::RandomDepsSpec spec;
    spec.num_tasks = 300;
    spec.num_data = 24;
    spec.body = workloads::BodyKind::kNone;
    spec.seed = seed;
    auto wl = workloads::make_random_deps(spec);
    stf::TaskFlow rebuilt;
    std::vector<stf::DataHandle<std::uint64_t>> data;
    for (std::uint32_t d = 0; d < spec.num_data; ++d)
      data.push_back(
          rebuilt.create_data<std::uint64_t>("d" + std::to_string(d)));
    for (const stf::Task& t : wl.flow.tasks()) {
      stf::AccessList acc = t.accesses;
      const stf::TaskId id = t.id;
      std::vector<stf::DataId> written, readed;
      for (const auto& a : t.accesses)
        (is_write(a.mode) ? written : readed).push_back(a.data);
      rebuilt.add(t.name,
                  [written, readed, id](stf::TaskContext& ctx) {
                    std::uint64_t v = id + 1;
                    for (stf::DataId rd : readed)
                      v ^= *static_cast<const std::uint64_t*>(
                          ctx.registry().raw(rd));
                    for (stf::DataId wr : written) {
                      auto* p =
                          static_cast<std::uint64_t*>(ctx.registry().raw(wr));
                      *p = *p * 1000003u + v;
                    }
                  },
                  std::move(acc), t.cost);
    }
    stf::TaskFlow out = std::move(rebuilt);
    return out;
  };

  auto seq_flow = make(17);
  const stf::FlowImage seq_image = stf::FlowImage::compile(seq_flow);
  stf::SequentialExecutor{}.run(seq_image);

  auto par_flow = make(17);
  Runtime rt(Launch{.workers = 4, .scheduler = GetParam(),
                    .work_stealing = GetParam() == SchedulerKind::kLocality,
                    .enable_guard = true});
  const stf::FlowImage par_image = stf::FlowImage::compile(par_flow);
  rt.run(par_image);

  for (stf::DataId d = 0; d < par_flow.num_data(); ++d)
    EXPECT_EQ(std::memcmp(par_flow.registry().raw(d), seq_flow.registry().raw(d),
                          par_flow.registry().bytes(d)),
              0)
        << "object " << d;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, CoorOracle,
                         ::testing::Values(SchedulerKind::kFifo,
                                           SchedulerKind::kLifo,
                                           SchedulerKind::kLocality),
                         [](const auto& i) {
                           return std::string(coor::to_string(i.param));
                         });

TEST(Coor, NumericLuMatchesSequential) {
  constexpr std::uint32_t nt = 3, dim = 8;
  workloads::TiledMatrix a1(nt, dim), a2(nt, dim);
  a1.fill_random_diagonally_dominant(31);
  a2.fill_random_diagonally_dominant(31);

  auto wl_seq = workloads::make_lu_numeric(a1);
  const stf::FlowImage seq_image = stf::FlowImage::compile(wl_seq.flow);
  stf::SequentialExecutor{}.run(seq_image);

  auto wl_par = workloads::make_lu_numeric(a2);
  Runtime rt(Launch{.workers = 4, .enable_guard = true});
  const stf::FlowImage par_image = stf::FlowImage::compile(wl_par.flow);
  rt.run(par_image);

  EXPECT_EQ(a1.max_abs_diff(a2), 0.0);
}

}  // namespace
