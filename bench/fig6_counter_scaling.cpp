// Figure 6 — Execution time vs task size for a fixed number of independent
// counter-increment tasks: centralized (StarPU-like) vs decentralized
// in-order (RIO).
//
// Paper: on 24 cores, StarPU's time is flat (per-task master cost
// dominates) until tasks reach ~1e5-1e6 instructions, while RIO tracks the
// ideal down to ~1e3-1e4 instructions. Here: both discrete-event models at
// the calibrated default costs, 24 virtual threads, plus the ideal line.
// A secondary real-thread mode (--real) runs the actual runtimes with the
// counter kernel at small scale for a host-level sanity check.
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "support/clock.hpp"
#include "workloads/synthetic.hpp"

using namespace rio;

namespace {

void simulated(const bench::Options& opt) {
  const std::uint64_t n = opt.quick ? 4096 : 16384;
  const std::vector<std::uint64_t> sizes =
      opt.quick
          ? std::vector<std::uint64_t>{100, 10'000, 1'000'000}
          : std::vector<std::uint64_t>{100, 1'000, 10'000, 100'000, 1'000'000,
                                       10'000'000, 100'000'000};

  bench::header("Figure 6",
                "time vs task size, " + std::to_string(n) +
                    " independent counter tasks, 24 virtual threads "
                    "(RIO: 24 workers; centralized: 23 workers + master)");

  sim::DecentralizedParams dp;  // 24 workers
  sim::CentralizedParams cp;    // 23 + master

  support::Table table({"task_size_instr", "rio_ms", "centralized_ms",
                        "ideal_ms", "rio_vs_ideal", "centralized_vs_ideal"});
  for (std::uint64_t sz : sizes) {
    workloads::IndependentSpec spec;
    spec.num_tasks = n;
    spec.task_cost = sz;
    spec.body = workloads::BodyKind::kNone;
    auto wl = workloads::make_independent(spec);

    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    const auto rio_rep =
        sim::simulate_decentralized(image, rt::mapping::round_robin(24), dp);
    const auto coor_rep = sim::simulate_centralized(image, cp);
    stf::DependencyGraph graph(wl.flow);
    const auto ideal = sim::ideal_makespan(wl.flow, graph, 24);

    table.row()
        .integer(static_cast<long long>(sz))
        .num(static_cast<double>(rio_rep.makespan) * 1e-6, 3)
        .num(static_cast<double>(coor_rep.makespan) * 1e-6, 3)
        .num(static_cast<double>(ideal) * 1e-6, 3)
        .num(static_cast<double>(rio_rep.makespan) /
                 static_cast<double>(ideal),
             2)
        .num(static_cast<double>(coor_rep.makespan) /
                 static_cast<double>(ideal),
             2);
  }
  bench::emit(table, opt);

  std::cout << "Paper shape: centralized time is flat below the crossover\n"
               "(master-bound: n * t_master), RIO follows the ideal well\n"
               "into fine granularity.\n";
}

void real_threads(const bench::Options& opt) {
  // Host check with the actual runtimes and the actual counter kernel.
  // Worker counts are kept small: the reproduction host may have 1 core,
  // and this mode demonstrates correctness + relative per-task overhead,
  // not 24-core scaling.
  const std::uint64_t n = opt.quick ? 2000 : 20000;
  const std::uint32_t workers = 2;
  bench::header("Figure 6 (real-thread mode)",
                std::to_string(n) + " independent counter tasks, " +
                    std::to_string(workers) + "+ workers on the host");

  support::Table table(
      {"task_size_instr", "rio_ms", "centralized_ms", "sequential_ms"});
  for (std::uint64_t sz : {100ull, 1000ull, 10000ull}) {
    workloads::IndependentSpec spec;
    spec.num_tasks = n;
    spec.task_cost = sz;
    spec.body = workloads::BodyKind::kCounter;

    // One launcher for every column: the engine::Registry dispatches by
    // name, and every engine runs under the same engine::Launch.
    const auto measure_ms = [&](const char* engine_name) {
      auto wl = workloads::make_independent(spec);
      const auto image = stf::FlowImage::compile(wl.flow);
      engine::Launch launch;
      launch.workers = workers;
      launch.collect_stats = false;
      support::Stopwatch sw;
      (void)bench::run_backend(engine_name, image, launch);
      return sw.elapsed_s() * 1e3;
    };

    table.row()
        .integer(static_cast<long long>(sz))
        .num(measure_ms("rio"), 2)
        .num(measure_ms("coor"), 2)
        .num(measure_ms("seq"), 2);
  }
  bench::emit(table, opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv, {"--real"});
  bool real = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--real") == 0) real = true;
  simulated(opt);
  if (real || !opt.quick) real_threads(opt);
  return 0;
}
