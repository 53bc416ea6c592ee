// Figure 4 — Efficiency decomposition for the 4096^2 GEMM under the
// centralized OoO model (24 threads).
//
// Paper: e_g dominates at small tiles (kernel inefficiency), e_p peaks at
// mid granularity (enough parallelism without flooding the runtime), e_r
// is capped below (p-1)/p by the dedicated master. Here: the simulated
// centralized model with the Figure-3 kernel curve; locality is not
// modelled by the simulator, so e_l = 1 (the real-measurement counterpart
// of this decomposition is exercised by the rio/coor runtimes' stats in
// bench/abl_* and the examples).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "metrics/efficiency.hpp"
#include "sim/sim.hpp"
#include "workloads/gemm.hpp"
#include "workloads/kernel_model.hpp"

using namespace rio;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const std::uint32_t matrix = 4096;
  const std::vector<std::uint32_t> tiles =
      opt.quick ? std::vector<std::uint32_t>{256, 1024}
                : std::vector<std::uint32_t>{64, 128, 256, 512, 1024, 2048};

  bench::header("Figure 4",
                "efficiency decomposition e = e_g*e_l*e_p*e_r, 4096^2 GEMM, "
                "centralized OoO model, 24 virtual threads");

  const workloads::KernelModel kernel;
  sim::CentralizedParams cp;

  support::Table table({"tile", "e_g", "e_l", "e_p", "e_r", "e"});
  for (std::uint32_t b : tiles) {
    workloads::GemmDagSpec spec;
    spec.tiles = matrix / b;
    spec.task_cost = kernel.tile_cost(b);
    spec.body = workloads::BodyKind::kNone;
    auto wl = workloads::make_gemm_dag(spec);

    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    const auto rep = sim::simulate_centralized(image, cp);
    const auto cum = rep.stats.cumulative();

    // Sequential reference times in the same virtual unit:
    //   t(g)  = total kernel work at this granularity (tau_{p,t} since the
    //           simulator has no locality effects),
    //   t     = the same work at the most efficient granularity.
    const double t_seq_g = static_cast<double>(cum.task_ns);
    const double best_eff = kernel.efficiency(2048);
    const double t_best = t_seq_g * kernel.efficiency(b) / best_eff;

    auto e = metrics::decompose(static_cast<std::uint64_t>(t_best),
                                static_cast<std::uint64_t>(t_seq_g), cum);
    table.row()
        .integer(b)
        .num(e.e_g, 3)
        .num(e.e_l, 3)
        .num(e.e_p, 3)
        .num(e.e_r, 3)
        .num(e.product(), 3);
  }
  bench::emit(table, opt);

  std::cout << "Paper shape: e_g climbs with tile size; e_p peaks at medium\n"
               "tiles; e_r stays below (p-1)/p = 0.958 (dedicated master)\n"
               "and collapses for tiny tiles (master-bound).\n";
  return 0;
}
