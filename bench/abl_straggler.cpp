// Straggler ablation — the price of losing dynamic scheduling.
//
// The paper's abstract concedes that RIO trades "dynamic mapping for
// efficiency": a static mapping cannot route around a slow core. This
// bench quantifies that trade on the simulator: one of 24 workers runs at
// reduced speed, everything else is homogeneous. The dynamic centralized
// scheduler naturally gives the straggler fewer tasks; the static in-order
// mapping keeps feeding it its fixed share, and the whole machine waits.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/sim.hpp"
#include "workloads/synthetic.hpp"

using namespace rio;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const std::uint64_t n = opt.quick ? 4096 : 16384;
  const std::uint64_t task_cost = 1'000'000;  // coarse: isolate reactivity

  bench::header("Straggler ablation",
                std::to_string(n) + " independent 1e6-instr tasks, 24 "
                "threads, ONE worker slowed down");

  support::Table table({"straggler_speed", "rio_static_ms",
                        "centralized_dynamic_ms", "rio_penalty"});
  for (double speed : {1.0, 0.75, 0.5, 0.25, 0.1}) {
    workloads::IndependentSpec spec;
    spec.num_tasks = n;
    spec.task_cost = task_cost;
    spec.body = workloads::BodyKind::kNone;
    auto wl = workloads::make_independent(spec);

    sim::DecentralizedParams dp;
    dp.workers = 24;
    dp.worker_speed.assign(24, 1.0);
    dp.worker_speed[0] = speed;
    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    const auto rio_rep =
        sim::simulate_decentralized(image, rt::mapping::round_robin(24), dp);

    sim::CentralizedParams cp;
    cp.workers = 23;
    cp.worker_speed.assign(23, 1.0);
    cp.worker_speed[0] = speed;
    const auto coor_rep = sim::simulate_centralized(image, cp);

    table.row()
        .num(speed, 2)
        .num(static_cast<double>(rio_rep.makespan) * 1e-6, 1)
        .num(static_cast<double>(coor_rep.makespan) * 1e-6, 1)
        .num(static_cast<double>(rio_rep.makespan) /
                 static_cast<double>(coor_rep.makespan),
             2);
  }
  bench::emit(table, opt);

  std::cout
      << "With coarse tasks and a straggler, the DYNAMIC model wins — the\n"
         "flip side of Figures 6/8 and exactly the regime the paper says\n"
         "centralized OoO runtimes are built for. The hybrid runtime\n"
         "exists to get both halves (see bench/hpl_mixed_granularity).\n";
  return 0;
}
