// Figure 2 — Execution time vs task (tile) size for a 4096^2 GEMM under a
// centralized OoO runtime on 24 threads.
//
// Paper: StarPU + MKL DGEMM on a dual 12-core Xeon; time grows steeply as
// tiles shrink (kernel efficiency loss + runtime overhead + master
// bottleneck). Here: the discrete-event centralized model on 24 virtual
// threads (23 workers + master), with per-tile task costs from the
// Figure-3 kernel-efficiency model. The ideal line (perfect runtime, same
// kernel) separates the kernel-efficiency contribution from the runtime's.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/sim.hpp"
#include "workloads/gemm.hpp"
#include "workloads/kernel_model.hpp"

using namespace rio;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const std::uint32_t matrix = 4096;
  const std::vector<std::uint32_t> tiles =
      opt.quick ? std::vector<std::uint32_t>{256, 512, 1024, 2048}
                : std::vector<std::uint32_t>{64, 128, 256, 512, 1024, 2048};

  bench::header("Figure 2",
                "execution time vs tile size, 4096^2 GEMM, centralized OoO "
                "model, 24 virtual threads (23 workers + master)");

  const workloads::KernelModel kernel;  // analytic Fig-3 curve
  sim::CentralizedParams cp;            // defaults: 23 workers + master

  support::Table table(
      {"tile", "tasks", "task_cost_ticks", "time_ms_sim", "ideal_ms",
       "slowdown_vs_ideal"});
  for (std::uint32_t b : tiles) {
    const std::uint32_t nt = matrix / b;
    workloads::GemmDagSpec spec;
    spec.tiles = nt;
    spec.task_cost = kernel.tile_cost(b);
    spec.body = workloads::BodyKind::kNone;
    auto wl = workloads::make_gemm_dag(spec);

    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    const auto rep = sim::simulate_centralized(image, cp);
    stf::DependencyGraph graph(wl.flow);
    const auto ideal = sim::ideal_makespan(wl.flow, graph, 24);

    table.row()
        .integer(b)
        .integer(static_cast<long long>(wl.flow.num_tasks()))
        .integer(static_cast<long long>(spec.task_cost))
        .num(static_cast<double>(rep.makespan) * 1e-6, 3)
        .num(static_cast<double>(ideal) * 1e-6, 3)
        .num(static_cast<double>(rep.makespan) / static_cast<double>(ideal),
             3);
  }
  bench::emit(table, opt);

  std::cout << "Paper shape: time explodes for small tiles (runtime-bound),\n"
               "flattens near the ideal for large ones (kernel-bound).\n";
  return 0;
}
