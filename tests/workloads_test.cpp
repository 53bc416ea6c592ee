// Tests for the workload generators and numeric kernels: task counts, DAG
// shape invariants, owner-table validity, kernel correctness against
// straightforward references.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;
using namespace rio::workloads;

// ------------------------------------------------------------ synthetic ----

TEST(Independent, CountAndNoData) {
  IndependentSpec spec;
  spec.num_tasks = 77;
  spec.num_workers = 3;
  auto wl = make_independent(spec);
  EXPECT_EQ(wl.flow.num_tasks(), 77u);
  EXPECT_EQ(wl.flow.num_data(), 0u);
  ASSERT_EQ(wl.owners.size(), 77u);
  for (std::size_t t = 0; t < 77; ++t)
    EXPECT_EQ(wl.owners[t], t % 3);
  stf::DependencyGraph g(wl.flow);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Independent, CostOnlyFlowHasNoBodies) {
  IndependentSpec spec;
  spec.num_tasks = 5;
  spec.task_cost = 123;
  spec.body = BodyKind::kNone;
  auto wl = make_independent(spec);
  for (const auto& t : wl.flow.tasks()) {
    EXPECT_FALSE(static_cast<bool>(t.fn));
    EXPECT_EQ(t.cost, 123u);
  }
}

TEST(RandomDeps, PaperParameters) {
  RandomDepsSpec spec;  // defaults are the paper's
  EXPECT_EQ(spec.num_data, 128u);
  EXPECT_EQ(spec.reads_per_task, 2u);
  EXPECT_EQ(spec.writes_per_task, 1u);
  spec.num_tasks = 500;
  auto wl = make_random_deps(spec);
  EXPECT_EQ(wl.flow.num_tasks(), 500u);
  EXPECT_EQ(wl.flow.num_data(), 128u);
  for (const auto& t : wl.flow.tasks()) {
    ASSERT_EQ(t.accesses.size(), 3u);
    int reads = 0, writes = 0;
    for (const auto& a : t.accesses) (is_write(a.mode) ? writes : reads)++;
    EXPECT_EQ(reads, 2);
    EXPECT_EQ(writes, 1);
    // Distinct objects within one task.
    EXPECT_NE(t.accesses[0].data, t.accesses[1].data);
    EXPECT_NE(t.accesses[0].data, t.accesses[2].data);
    EXPECT_NE(t.accesses[1].data, t.accesses[2].data);
  }
}

TEST(RandomDeps, SeedReproducibility) {
  RandomDepsSpec spec;
  spec.num_tasks = 100;
  auto a = make_random_deps(spec);
  auto b = make_random_deps(spec);
  spec.seed = 43;
  auto c = make_random_deps(spec);
  for (std::size_t t = 0; t < 100; ++t)
    EXPECT_EQ(a.flow.task(t).accesses[0].data, b.flow.task(t).accesses[0].data);
  bool any_diff = false;
  for (std::size_t t = 0; t < 100; ++t)
    any_diff |= a.flow.task(t).accesses[0].data != c.flow.task(t).accesses[0].data;
  EXPECT_TRUE(any_diff);
}

// ----------------------------------------------------------- gemm DAG ------

TEST(GemmDag, CountsAndChainStructure) {
  GemmDagSpec spec;
  spec.tiles = 3;
  spec.num_workers = 4;
  auto wl = make_gemm_dag(spec);
  EXPECT_EQ(wl.flow.num_tasks(), 27u);  // nt^3
  EXPECT_EQ(wl.flow.num_data(), 27u);   // 3 grids of nt^2
  stf::DependencyGraph g(wl.flow);
  // Each C(i,j) chain: k=0 task has no preds, k>0 depends on predecessor.
  EXPECT_EQ(g.max_ready_width(), 9u);   // all nt^2 chains start ready
  EXPECT_EQ(g.critical_path_cost(wl.flow), 3u * spec.task_cost);
  ASSERT_EQ(wl.owners.size(), 27u);
  for (auto o : wl.owners) EXPECT_LT(o, 4u);
}

TEST(GemmNumeric, MatchesBlockedDgemm) {
  constexpr std::uint32_t nt = 3, dim = 8;
  const std::size_t n = nt * dim;
  TiledMatrix a(nt, dim), b(nt, dim), c(nt, dim);
  a.fill_random(1);
  b.fill_random(2);
  auto wl = make_gemm_numeric(a, b, c);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  stf::SequentialExecutor{}.run(image);

  // Dense reference on the same values.
  std::vector<double> da(n * n), db(n * n), dc(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t col = 0; col < n; ++col) {
      da[r + col * n] = a.at(r, col);
      db[r + col * n] = b.at(r, col);
    }
  naive_dgemm(dc.data(), da.data(), db.data(), n);
  double worst = 0;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t col = 0; col < n; ++col)
      worst = std::max(worst, std::fabs(dc[r + col * n] - c.at(r, col)));
  EXPECT_LT(worst, 1e-12);
}

// -------------------------------------------------------------- lu DAG -----

TEST(LuDag, TaskCountFormulaMatchesGenerator) {
  for (auto [r, c] : {std::pair{2u, 2u}, {3u, 2u}, {3u, 3u}, {5u, 4u}}) {
    LuDagSpec spec;
    spec.row_tiles = r;
    spec.col_tiles = c;
    auto wl = make_lu_dag(spec);
    EXPECT_EQ(wl.flow.num_tasks(), lu_dag_task_count(r, c))
        << r << "x" << c;
  }
}

TEST(LuDag, GetrfChainIsCriticalPathBackbone) {
  LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 4;
  spec.task_cost = 10;
  auto wl = make_lu_dag(spec);
  stf::DependencyGraph g(wl.flow);
  // getrf(k) -> trsm -> gemm -> getrf(k+1): >= 3 tasks per step except the
  // last: critical path >= (3 * (nt-1) + 1) * cost.
  EXPECT_GE(g.critical_path_cost(wl.flow), (3u * 3u + 1u) * 10u);
}

TEST(LuDag, RectangularGridsSupported) {
  LuDagSpec spec;
  spec.row_tiles = 4;
  spec.col_tiles = 2;
  auto wl = make_lu_dag(spec);
  EXPECT_EQ(wl.flow.num_tasks(), lu_dag_task_count(4, 2));
  stf::DependencyGraph g(wl.flow);
  EXPECT_GT(g.num_edges(), 0u);
}

// ------------------------------------------------------------ cholesky -----

TEST(CholeskyDag, TaskCountFormulaMatchesGenerator) {
  for (std::uint32_t nt : {2u, 3u, 4u, 6u}) {
    CholeskyDagSpec spec;
    spec.tiles = nt;
    auto wl = make_cholesky_dag(spec);
    EXPECT_EQ(wl.flow.num_tasks(), cholesky_dag_task_count(nt)) << nt;
  }
}

TEST(CholeskyNumeric, ReconstructsSpdMatrix) {
  constexpr std::uint32_t nt = 3, dim = 8;
  const std::size_t n = nt * dim;
  TiledMatrix a(nt, dim);
  a.fill_random_diagonally_dominant(7);
  a.symmetrize();
  TiledMatrix original = a;
  auto wl = make_cholesky_numeric(a);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  stf::SequentialExecutor{}.run(image);
  // L * L^T must reproduce the original (lower triangle holds L).
  double worst = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      double acc = 0;
      for (std::size_t k = 0; k <= c; ++k) acc += a.at(r, k) * a.at(c, k);
      worst = std::max(worst, std::fabs(acc - original.at(r, c)));
    }
  }
  EXPECT_LT(worst, 1e-10);
}

// ------------------------------------------------------------- stencil -----

TEST(StencilDag, TaskCountAndNeighbourDeps) {
  StencilSpec spec;
  spec.chunks = 8;
  spec.steps = 3;
  spec.num_workers = 4;
  auto wl = make_stencil_dag(spec);
  EXPECT_EQ(wl.flow.num_tasks(), 24u);
  stf::DependencyGraph g(wl.flow);
  // A middle chunk at step 1 depends on 3 writers from step 0.
  const stf::TaskId mid = 8 + 4;
  EXPECT_EQ(g.predecessors(mid).size(), 3u);
  // Border chunks depend on 2.
  EXPECT_EQ(g.predecessors(8).size(), 2u);
  // Owners are a non-decreasing block map over chunks.
  for (std::size_t t = 1; t < 8; ++t)
    EXPECT_LE(wl.owners[t - 1], wl.owners[t]);
}

TEST(StencilNumeric, ConservesMassRoughly) {
  // The 3-point kernel with reflective boundaries preserves the total sum.
  constexpr std::uint32_t chunks = 4, len = 8, steps = 6;
  std::vector<double> a(chunks * len, 0.0), b(chunks * len, 0.0);
  a[10] = 64.0;
  const double before = 64.0;
  auto wl = make_stencil_numeric(chunks, len, steps, a, b);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  stf::SequentialExecutor{}.run(image);
  const auto& result = (steps % 2 == 0) ? a : b;
  double after = 0;
  for (double v : result) after += v;
  EXPECT_NEAR(after, before, 1e-9);
}

// --------------------------------------------------------- dense kernels ---

TEST(DenseKernels, GetrfReconstructsMatrix) {
  constexpr std::size_t n = 6;
  std::vector<double> a(n * n);
  support::Xoshiro256 rng(3);
  for (auto& v : a) v = rng.uniform();
  for (std::size_t i = 0; i < n; ++i) a[i + i * n] += n;  // dominant
  auto lu = a;
  getrf_tile(lu.data(), n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double acc = 0;
      for (std::size_t k = 0; k <= std::min(r, c); ++k)
        acc += (k == r ? 1.0 : lu[r + k * n]) * lu[k + c * n];
      EXPECT_NEAR(acc, a[r + c * n], 1e-10);
    }
  }
}

TEST(DenseKernels, TrsmLowerLeftSolves) {
  constexpr std::size_t n = 5;
  std::vector<double> lu(n * n, 0.0), b(n * n), x(n * n);
  support::Xoshiro256 rng(5);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      lu[r + c * n] = (r > c) ? rng.uniform() : (r == c ? 3.0 : rng.uniform());
  for (auto& v : x) v = rng.uniform();
  // b = L * x with unit diagonal L (lower part of lu).
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) {
      double acc = x[r + c * n];
      for (std::size_t k = 0; k < r; ++k) acc += lu[r + k * n] * x[k + c * n];
      b[r + c * n] = acc;
    }
  trsm_lower_left(lu.data(), b.data(), n);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(b[i], x[i], 1e-12);
}

TEST(DenseKernels, TrsmUpperRightSolves) {
  constexpr std::size_t n = 5;
  std::vector<double> lu(n * n, 0.0), x(n * n), b(n * n, 0.0);
  support::Xoshiro256 rng(6);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r <= c; ++r)
      lu[r + c * n] = (r == c) ? 2.0 + rng.uniform() : rng.uniform();
  for (auto& v : x) v = rng.uniform();
  // b = X * U.
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 0;
      for (std::size_t k = 0; k <= c; ++k)
        acc += x[r + k * n] * lu[k + c * n];
      b[r + c * n] = acc;
    }
  trsm_upper_right(lu.data(), b.data(), n);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(b[i], x[i], 1e-12);
}

TEST(DenseKernels, PotrfFactorsSpd) {
  constexpr std::size_t n = 6;
  std::vector<double> a(n * n);
  support::Xoshiro256 rng(8);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r <= c; ++r) {
      const double v = rng.uniform();
      a[r + c * n] = v;
      a[c + r * n] = v;
    }
  for (std::size_t i = 0; i < n; ++i) a[i + i * n] += n;
  auto l = a;
  potrf_tile(l.data(), n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c <= r; ++c) {
      double acc = 0;
      for (std::size_t k = 0; k <= c; ++k) acc += l[r + k * n] * l[c + k * n];
      EXPECT_NEAR(acc, a[r + c * n], 1e-10);
    }
}

TEST(DenseKernels, SyrkLowerTriangle) {
  constexpr std::size_t n = 4;
  std::vector<double> a(n * n), c(n * n, 0.0), expect(n * n, 0.0);
  support::Xoshiro256 rng(9);
  for (auto& v : a) v = rng.uniform();
  syrk_tile(c.data(), a.data(), n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t col = 0; col <= r; ++col) {
      double acc = 0;
      for (std::size_t k = 0; k < n; ++k)
        acc -= a[r + k * n] * a[col + k * n];
      expect[r + col * n] = acc;
    }
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t col = 0; col <= r; ++col)
      EXPECT_NEAR(c[r + col * n], expect[r + col * n], 1e-12);
}

class BlockedDgemm : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockedDgemm, MatchesNaiveForAnyBlockSize) {
  constexpr std::size_t n = 37;  // deliberately not a multiple of any block
  std::vector<double> a(n * n), b(n * n), c1(n * n, 0.0), c2(n * n, 0.0);
  support::Xoshiro256 rng(11);
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  naive_dgemm(c1.data(), a.data(), b.data(), n);
  blocked_dgemm(c2.data(), a.data(), b.data(), n, GetParam());
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(c1[i], c2[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockedDgemm,
                         ::testing::Values(1, 4, 7, 16, 37, 64));

// ----------------------------------------------------------- TiledMatrix ---

TEST(TiledMatrix, GlobalIndexingRoundTrips) {
  TiledMatrix m(3, 4);
  for (std::size_t r = 0; r < 12; ++r)
    for (std::size_t c = 0; c < 12; ++c)
      m.at(r, c) = static_cast<double>(r * 100 + c);
  // Check via raw tile pointers.
  for (std::uint32_t ti = 0; ti < 3; ++ti)
    for (std::uint32_t tj = 0; tj < 3; ++tj) {
      const double* tile = m.tile(ti, tj);
      for (std::uint32_t r = 0; r < 4; ++r)
        for (std::uint32_t c = 0; c < 4; ++c)
          EXPECT_EQ(tile[r + c * 4],
                    static_cast<double>((ti * 4 + r) * 100 + tj * 4 + c));
    }
}

TEST(TiledMatrix, DiagonallyDominantIsLuSafe) {
  TiledMatrix m(2, 8);
  m.fill_random_diagonally_dominant(17);
  for (std::size_t r = 0; r < 16; ++r) {
    double off = 0;
    for (std::size_t c = 0; c < 16; ++c)
      if (c != r) off += std::fabs(m.at(r, c));
    EXPECT_GT(std::fabs(m.at(r, r)), off);
  }
}

TEST(TiledMatrix, SymmetrizeIsSymmetric) {
  TiledMatrix m(2, 4);
  m.fill_random(19);
  m.symmetrize();
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_EQ(m.at(r, c), m.at(c, r));
}

// --------------------------------------------------------- kernel model ----

TEST(KernelModel, AnalyticEfficiencyMonotone) {
  KernelModel m;
  double prev = 0;
  for (double b : {8.0, 16.0, 64.0, 256.0, 2048.0}) {
    const double e = m.efficiency(b);
    EXPECT_GT(e, prev);
    EXPECT_LE(e, 1.0);
    prev = e;
  }
}

TEST(KernelModel, MeasuredPointsInterpolate) {
  auto m = KernelModel::from_measurements({{8, 0.4}, {64, 0.8}, {512, 1.0}});
  EXPECT_DOUBLE_EQ(m.efficiency(8), 0.4);
  EXPECT_DOUBLE_EQ(m.efficiency(512), 1.0);
  EXPECT_DOUBLE_EQ(m.efficiency(4), 0.4);     // clamped below
  EXPECT_DOUBLE_EQ(m.efficiency(1024), 1.0);  // clamped above
  const double mid = m.efficiency(22.6);       // ~log-midpoint of 8..64
  EXPECT_GT(mid, 0.55);
  EXPECT_LT(mid, 0.65);
}

TEST(KernelModel, TileCostInverseToEfficiency) {
  KernelModel m(1.0);  // peak 1 flop/tick
  const auto c64 = m.tile_cost(64);
  // cost = 2 b^3 / e: with e < 1, cost exceeds the raw flop count.
  EXPECT_GT(c64, 2ull * 64 * 64 * 64);
}

// ---------------------------------------------------------- counter cal ----

TEST(CounterCalibration, ProducesPlausibleRate) {
  const double rate = counter_iterations_per_ns(2);
  EXPECT_GT(rate, 0.01);  // >= 10 MHz equivalent
  EXPECT_LT(rate, 100.0); // <= 100 GHz equivalent
}

}  // namespace
