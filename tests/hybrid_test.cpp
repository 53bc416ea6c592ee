// Tests for the hybrid runtime (dynamic OoO + static in-order phases under
// a partial mapping) and the pivoted-LU (HPL-style) workload that
// motivates it.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "coor/coor.hpp"
#include "hybrid/hybrid.hpp"
#include "rio/rio.hpp"
#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;
using hybrid::Phase;

// ---------------------------------------------------------- partition ------

TEST(Partition, SplitsAtMappingBoundaries) {
  stf::TaskFlow flow;
  for (int i = 0; i < 10; ++i) flow.add_virtual(1, {});
  // Tasks 0-2 unmapped, 3-6 mapped, 7-9 unmapped.
  auto pm = [](stf::TaskId t) -> std::optional<stf::WorkerId> {
    if (t >= 3 && t <= 6) return static_cast<stf::WorkerId>(t % 2);
    return std::nullopt;
  };
  const auto phases = hybrid::partition(flow, pm, 2);
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].kind, Phase::Kind::kDynamic);
  EXPECT_EQ(phases[0].first, 0u);
  EXPECT_EQ(phases[0].count, 3u);
  EXPECT_EQ(phases[1].kind, Phase::Kind::kStatic);
  EXPECT_EQ(phases[1].first, 3u);
  EXPECT_EQ(phases[1].count, 4u);
  EXPECT_TRUE(phases[1].mapping.valid());
  EXPECT_EQ(phases[1].mapping(4), 0u);
  EXPECT_EQ(phases[2].kind, Phase::Kind::kDynamic);
  EXPECT_EQ(phases[2].count, 3u);
}

TEST(Partition, AllMappedIsOneStaticPhase) {
  stf::TaskFlow flow;
  for (int i = 0; i < 5; ++i) flow.add_virtual(1, {});
  const auto phases = hybrid::partition(
      flow, [](stf::TaskId) { return std::optional<stf::WorkerId>(0); }, 1);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].kind, Phase::Kind::kStatic);
  EXPECT_EQ(phases[0].count, 5u);
}

TEST(Partition, EmptyFlowHasNoPhases) {
  stf::TaskFlow flow;
  const auto phases = hybrid::partition(
      flow, [](stf::TaskId) { return std::nullopt; }, 2);
  EXPECT_TRUE(phases.empty());
}

// ------------------------------------------------------------ execution ----

TEST(Hybrid, MixedPhasesPreserveSequentialSemantics) {
  // A value threaded through alternating mapped/unmapped segments: any
  // reordering or lost barrier would corrupt the digits.
  auto build = [] {
    stf::TaskFlow flow;
    auto d = flow.create_data<std::uint64_t>("d");
    for (int i = 1; i <= 12; ++i)
      flow.add("s" + std::to_string(i),
               [d, i](stf::TaskContext& ctx) {
                 ctx.scalar(d) = ctx.scalar(d) * 10 +
                                 static_cast<std::uint64_t>(i % 10);
               },
               {stf::readwrite(d)});
    return flow;
  };
  auto seq_flow = build();
  stf::SequentialExecutor{}.run(seq_flow);
  const auto expect = *seq_flow.registry().typed<std::uint64_t>(
      stf::DataHandle<std::uint64_t>{0});

  auto flow = build();
  hybrid::Runtime rt(engine::Launch{.workers = 3, .enable_guard = true});
  rt.run(flow, [](stf::TaskId t) -> std::optional<stf::WorkerId> {
    // Alternate segments of 3: mapped, unmapped, mapped, unmapped.
    if ((t / 3) % 2 == 0) return static_cast<stf::WorkerId>(t % 3);
    return std::nullopt;
  });
  EXPECT_EQ(rt.last_phase_count(), 4u);
  EXPECT_EQ(*flow.registry().typed<std::uint64_t>(
                stf::DataHandle<std::uint64_t>{0}),
            expect);
}

TEST(Hybrid, RandomGraphMatchesOracleAcrossPhaseShapes) {
  for (std::uint64_t segment : {1ull, 5ull, 17ull}) {
    auto make = [] {
      workloads::RandomDepsSpec spec;
      spec.num_tasks = 200;
      spec.num_data = 16;
      spec.body = workloads::BodyKind::kNone;
      spec.seed = 77;
      auto wl = workloads::make_random_deps(spec);
      // Rebuild with order-sensitive bodies.
      stf::TaskFlow rebuilt;
      std::vector<stf::DataHandle<std::uint64_t>> data;
      for (std::uint32_t d = 0; d < spec.num_data; ++d)
        data.push_back(
            rebuilt.create_data<std::uint64_t>("d" + std::to_string(d)));
      for (const stf::Task& t : wl.flow.tasks()) {
        stf::AccessList acc = t.accesses;
        const stf::TaskId id = t.id;
        std::vector<stf::DataId> written;
        for (const auto& a : t.accesses)
          if (is_write(a.mode)) written.push_back(a.data);
        rebuilt.add(t.name,
                    [written, id](stf::TaskContext& ctx) {
                      for (stf::DataId wr : written) {
                        auto* p = static_cast<std::uint64_t*>(
                            ctx.registry().raw(wr));
                        *p = *p * 31 + id + 1;
                      }
                    },
                    std::move(acc), t.cost);
      }
      return rebuilt;
    };

    auto seq_flow = make();
    stf::SequentialExecutor{}.run(seq_flow);

    auto flow = make();
    hybrid::Runtime rt(
        engine::Launch{.workers = 3, .enable_guard = true});
    rt.run(flow, [segment](stf::TaskId t) -> std::optional<stf::WorkerId> {
      if ((t / segment) % 2 == 0) return static_cast<stf::WorkerId>(t % 3);
      return std::nullopt;
    });

    for (stf::DataId d = 0; d < flow.num_data(); ++d)
      EXPECT_EQ(std::memcmp(flow.registry().raw(d), seq_flow.registry().raw(d),
                            flow.registry().bytes(d)),
                0)
          << "segment " << segment << " object " << d;
  }
}

TEST(Hybrid, StatsAggregateAcrossPhases) {
  workloads::IndependentSpec spec;
  spec.num_tasks = 90;
  spec.task_cost = 2000;
  auto wl = workloads::make_independent(spec);
  hybrid::Runtime rt(engine::Launch{.workers = 2});
  const auto stats =
      rt.run(wl.flow, [](stf::TaskId t) -> std::optional<stf::WorkerId> {
        if (t < 30) return static_cast<stf::WorkerId>(t % 2);  // static
        return std::nullopt;                                   // dynamic
      });
  EXPECT_EQ(rt.last_phase_count(), 2u);
  EXPECT_EQ(stats.tasks_executed(), 90u);
  ASSERT_EQ(stats.workers.size(), 3u);  // 2 workers + dynamic master slot
  EXPECT_EQ(stats.workers[2].tasks_executed, 0u);
  EXPECT_GT(stats.wall_ns, 0u);
}

// ------------------------------------------------------- HPL workload ------

TEST(Hpl, DenseReferencePivotsAndFactors) {
  // 3x3 known case: first pivot must be the largest |entry| of column 0.
  const std::size_t n = 3;
  std::vector<double> a = {1, 4, 2,   // column 0
                           2, 8, 5,   // column 1
                           3, 12, 7}; // column 2 (singular without pivoting)
  auto ap = a;
  const auto perm = workloads::dense_lu_pivoted(ap, n);
  EXPECT_EQ(perm[0], 1u);  // row 1 has the max |4|
  // Reconstruct P*A = L*U and compare.
  auto pa = a;
  for (std::size_t c = 0; c < n; ++c)
    if (perm[c] != c)
      for (std::size_t col = 0; col < n; ++col)
        std::swap(pa[c + col * n], pa[perm[c] + col * n]);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double acc = 0;
      for (std::size_t k = 0; k <= std::min(r, c); ++k)
        acc += (k == r ? 1.0 : ap[r + k * n]) * ap[k + c * n];
      EXPECT_NEAR(acc, pa[r + c * n], 1e-12) << r << "," << c;
    }
  }
}

struct HplParam {
  std::uint32_t tiles, dim, workers;
};

class HplEngines : public ::testing::TestWithParam<HplParam> {};

TEST_P(HplEngines, SequentialFactorizationIsCorrect) {
  const auto [nt, dim, workers] = GetParam();
  workloads::TiledMatrix a(nt, dim);
  a.fill_random(91);
  workloads::TiledMatrix original = a;
  auto hpl = workloads::make_hpl_lu(a, workers);
  stf::SequentialExecutor{}.run(hpl.workload.flow);
  EXPECT_LT(workloads::hpl_residual(original, a, *hpl.perm), 1e-13);
}

TEST_P(HplEngines, HybridMatchesSequential) {
  const auto [nt, dim, workers] = GetParam();
  workloads::TiledMatrix a1(nt, dim), a2(nt, dim);
  a1.fill_random(92);
  a2.fill_random(92);
  workloads::TiledMatrix original = a1;

  auto seq = workloads::make_hpl_lu(a1, workers);
  stf::SequentialExecutor{}.run(seq.workload.flow);

  auto hpl = workloads::make_hpl_lu(a2, workers);
  hybrid::Runtime rt(
      engine::Launch{.workers = workers, .enable_guard = true});
  rt.run(hpl.workload.flow, hpl.partial_mapping());

  EXPECT_EQ(a1.max_abs_diff(a2), 0.0) << "hybrid diverged from sequential";
  EXPECT_EQ(*seq.perm, *hpl.perm);
  EXPECT_LT(workloads::hpl_residual(original, a2, *hpl.perm), 1e-13);
  // Alternating fine/coarse phases: 2 per panel step (first step has no
  // leading dynamic run), so at least nt phases.
  EXPECT_GE(rt.last_phase_count(), static_cast<std::size_t>(nt));
}

TEST_P(HplEngines, PureRioWithFullMappingMatches) {
  const auto [nt, dim, workers] = GetParam();
  workloads::TiledMatrix a1(nt, dim), a2(nt, dim);
  a1.fill_random(93);
  a2.fill_random(93);

  auto seq = workloads::make_hpl_lu(a1, workers);
  stf::SequentialExecutor{}.run(seq.workload.flow);

  auto hpl = workloads::make_hpl_lu(a2, workers);
  rt::Runtime runtime(
      engine::Launch{.workers = workers, .enable_guard = true});
  runtime.run(hpl.workload.flow, hpl.full_mapping());

  EXPECT_EQ(a1.max_abs_diff(a2), 0.0);
  EXPECT_EQ(*seq.perm, *hpl.perm);
}

TEST_P(HplEngines, CentralizedOooMatches) {
  const auto [nt, dim, workers] = GetParam();
  workloads::TiledMatrix a1(nt, dim), a2(nt, dim);
  a1.fill_random(94);
  a2.fill_random(94);

  auto seq = workloads::make_hpl_lu(a1, workers);
  stf::SequentialExecutor{}.run(seq.workload.flow);

  auto hpl = workloads::make_hpl_lu(a2, workers);
  coor::Runtime runtime(
      engine::Launch{.workers = workers, .enable_guard = true});
  runtime.run(hpl.workload.flow);

  EXPECT_EQ(a1.max_abs_diff(a2), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HplEngines,
                         ::testing::Values(HplParam{2, 4, 2},
                                           HplParam{3, 4, 3},
                                           HplParam{3, 8, 2},
                                           HplParam{4, 4, 4}),
                         [](const auto& i) {
                           return "t" + std::to_string(i.param.tiles) + "d" +
                                  std::to_string(i.param.dim) + "w" +
                                  std::to_string(i.param.workers);
                         });

TEST(Hpl, PivotingActuallyHappens) {
  // A matrix crafted so the naive (unpivoted) algorithm would divide by a
  // tiny pivot: pivoting must pick larger rows.
  constexpr std::uint32_t nt = 2, dim = 4;
  workloads::TiledMatrix a(nt, dim);
  a.fill_random(95);
  a.at(0, 0) = 1e-14;  // force a pivot swap at the very first column
  workloads::TiledMatrix original = a;

  auto hpl = workloads::make_hpl_lu(a, 2);
  stf::SequentialExecutor{}.run(hpl.workload.flow);
  EXPECT_NE((*hpl.perm)[0], 0u) << "first pivot should not stay in place";
  EXPECT_LT(workloads::hpl_residual(original, a, *hpl.perm), 1e-12);
}

}  // namespace
