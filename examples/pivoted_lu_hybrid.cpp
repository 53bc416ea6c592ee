// LU with partial pivoting on the HYBRID runtime — the paper's motivating
// problem solved with the combination its conclusion proposes.
//
// HPL-style factorizations mix coarse trailing updates (ideal for a
// dynamic, centralized scheduler) with fine-grained pivoting (which that
// scheduler cannot afford). The hybrid runtime executes each at the model
// that suits it, from ONE task flow and a PARTIAL mapping: only the fine
// pivoting tasks carry an owner.
#include <cstdint>
#include <iostream>

#include "hybrid/hybrid.hpp"
#include "stf/stf.hpp"
#include "support/clock.hpp"
#include "workloads/workloads.hpp"

using namespace rio;

int main() {
  constexpr std::uint32_t kTiles = 4;
  constexpr std::uint32_t kTileDim = 24;
  constexpr std::uint32_t kWorkers = 3;
  const std::size_t n = static_cast<std::size_t>(kTiles) * kTileDim;

  workloads::TiledMatrix a(kTiles, kTileDim);
  a.fill_random(7);               // general matrix: pivoting REQUIRED
  workloads::TiledMatrix original = a;

  auto hpl = workloads::make_hpl_lu(a, kWorkers);
  std::size_t fine = 0;
  for (auto o : hpl.workload.owners) fine += o != stf::kInvalidWorker;
  std::cout << "pivoted LU of a " << n << "x" << n << " matrix: "
            << hpl.workload.flow.num_tasks() << " tasks, " << fine
            << " fine-grained pivoting tasks (mapped), "
            << hpl.workload.flow.num_tasks() - fine
            << " coarse update tasks (dynamic)\n";

  hybrid::Runtime runtime(
      engine::Launch{.workers = kWorkers, .enable_guard = true});
  support::Stopwatch sw;
  const auto stats = runtime.run(hpl.workload.flow, hpl.partial_mapping());
  std::cout << "executed in " << sw.elapsed_s() * 1e3 << " ms across "
            << runtime.last_phase_count()
            << " phases (static pivoting / dynamic update alternation)\n";

  // Verify: P*A = L*U against the untouched input.
  const double residual = workloads::hpl_residual(original, a, *hpl.perm);
  std::cout << "||P*A - L*U|| / (n*||A||) = " << residual << "\n";
  if (residual > 1e-12) {
    std::cerr << "FACTORIZATION INCORRECT\n";
    return 1;
  }

  std::size_t swaps = 0;
  for (std::size_t c = 0; c < n; ++c) swaps += (*hpl.perm)[c] != c;
  std::cout << swaps << "/" << n << " columns required a row swap; "
            << stats.tasks_executed() << " tasks executed — OK\n";
  return 0;
}
