// Dense linear-system solver on the RIO runtime.
//
// The paper's motivating application domain: tiled dense factorizations
// whose pivoting steps need fine-grained tasks (HPL / LU, Section 1).
// This example factorizes a diagonally-dominant matrix with the tiled
// unpivoted LU task graph under an owner-computes 2-D block-cyclic
// mapping, executes it with (a) the sequential executor, (b) RIO, (c) the
// centralized OoO baseline, verifies all three agree, then solves
// A x = b by forward/backward substitution and reports the residual.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "coor/coor.hpp"
#include "rio/rio.hpp"
#include "stf/stf.hpp"
#include "support/clock.hpp"
#include "workloads/workloads.hpp"

using namespace rio;

namespace {

// y = A * x for the original (pre-factorization) tiled matrix.
std::vector<double> matvec(const workloads::TiledMatrix& a,
                           const std::vector<double>& x) {
  const std::size_t n = a.order();
  std::vector<double> y(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) y[r] += a.at(r, c) * x[c];
  return y;
}

// Solves L U x = b given the packed LU factors.
std::vector<double> lu_solve(const workloads::TiledMatrix& lu,
                             std::vector<double> b) {
  const std::size_t n = lu.order();
  // Forward: L y = b (unit diagonal).
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < r; ++c) b[r] -= lu.at(r, c) * b[c];
  // Backward: U x = y.
  for (std::size_t r = n; r-- > 0;) {
    for (std::size_t c = r + 1; c < n; ++c) b[r] -= lu.at(r, c) * b[c];
    b[r] /= lu.at(r, r);
  }
  return b;
}

}  // namespace

int main() {
  constexpr std::uint32_t kTiles = 6;
  constexpr std::uint32_t kTileDim = 24;
  constexpr std::uint32_t kWorkers = 4;
  const std::size_t n = static_cast<std::size_t>(kTiles) * kTileDim;

  std::cout << "Tiled LU (no pivoting) of a " << n << "x" << n << " matrix, "
            << kTiles << "x" << kTiles << " tiles of " << kTileDim << "^2\n\n";

  // Keep a pristine copy for the residual check.
  workloads::TiledMatrix original(kTiles, kTileDim);
  original.fill_random_diagonally_dominant(2024);

  auto factorize = [&](auto&& run, const char* label,
                       workloads::TiledMatrix& m) {
    m = original;  // fresh copy
    support::Stopwatch sw;
    run(m);
    std::cout << "  " << label << ": " << sw.elapsed_s() * 1e3 << " ms\n";
  };

  workloads::TiledMatrix seq(kTiles, kTileDim), rio_m(kTiles, kTileDim),
      coor_m(kTiles, kTileDim);

  factorize(
      [&](workloads::TiledMatrix& m) {
        auto wl = workloads::make_lu_numeric(m);
        const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
        stf::SequentialExecutor{}.run(image);
      },
      "sequential        ", seq);

  factorize(
      [&](workloads::TiledMatrix& m) {
        auto wl = workloads::make_lu_numeric(m, kWorkers);
        rt::Runtime runtime(engine::Launch{.workers = kWorkers});
        // Owner-computes 2-D block-cyclic mapping from the generator.
        const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
        runtime.run(image, wl.mapping(kWorkers));
      },
      "RIO (4 workers)   ", rio_m);

  factorize(
      [&](workloads::TiledMatrix& m) {
        auto wl = workloads::make_lu_numeric(m);
        coor::Runtime runtime(engine::Launch{.workers = kWorkers});
        const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
        runtime.run(image);
      },
      "centralized OoO   ", coor_m);

  std::cout << "\n  max |RIO - sequential|  = " << rio_m.max_abs_diff(seq)
            << "\n  max |OoO - sequential|  = " << coor_m.max_abs_diff(seq)
            << "\n";
  if (rio_m.max_abs_diff(seq) != 0.0 || coor_m.max_abs_diff(seq) != 0.0) {
    std::cerr << "FACTORIZATIONS DISAGREE\n";
    return 1;
  }

  // Solve A x = b with the RIO-produced factors.
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i)
    x_true[i] = std::sin(static_cast<double>(i) * 0.37) + 1.5;
  const auto b = matvec(original, x_true);
  const auto x = lu_solve(rio_m, b);

  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::fabs(x[i] - x_true[i]));
  std::cout << "  solve A x = b: max |x - x_true| = " << err << "\n";
  if (err > 1e-8) {
    std::cerr << "SOLVE FAILED\n";
    return 1;
  }
  std::cout << "\nall three execution models agree; solution verified — OK\n";
  return 0;
}
