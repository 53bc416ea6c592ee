// Figure 8 — Efficiency decomposition vs task size, RIO vs centralized
// OoO, on the four synthetic experiments of Section 5.1:
//
//   1. independent tasks
//   2. random dependencies (128 data objects, 2 random reads + 1 random
//      write per task)
//   3. the matrix-multiplication dependency graph
//   4. the LU-factorization (no pivoting) dependency graph
//
// All tasks are the paper's synthetic counter kernel, so e_g = e_l = 1 and
// only the pipelining efficiency e_p and runtime efficiency e_r remain
// (Section 5.1). 24 virtual threads (RIO: 24 workers; centralized: 23
// workers + one dedicated master, as in StarPU).
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/efficiency.hpp"
#include "sim/sim.hpp"
#include "workloads/workloads.hpp"

using namespace rio;

namespace {

struct Experiment {
  std::string name;
  std::function<workloads::Workload(std::uint64_t task_cost,
                                    std::uint32_t workers)>
      make;
};

void run_experiment(const Experiment& exp, const bench::Options& opt) {
  const std::vector<std::uint64_t> sizes =
      opt.quick ? std::vector<std::uint64_t>{1'000, 1'000'000}
                : std::vector<std::uint64_t>{100, 1'000, 10'000, 100'000,
                                             1'000'000, 10'000'000};
  constexpr std::uint32_t kThreads = 24;

  std::cout << "--- Experiment: " << exp.name << " ---\n";
  support::Table table({"task_size", "rio_e_p", "rio_e_r", "rio_e",
                        "coor_e_p", "coor_e_r", "coor_e"});
  for (std::uint64_t sz : sizes) {
    auto wl_rio = exp.make(sz, kThreads);
    sim::DecentralizedParams dp;
    dp.workers = kThreads;
    const stf::FlowImage rio_image = stf::FlowImage::compile(wl_rio.flow);
    const auto rio_rep =
        sim::simulate_decentralized(rio_image, wl_rio.mapping(kThreads), dp);
    const auto rio_e =
        metrics::decompose_synthetic(rio_rep.stats.cumulative());

    auto wl_coor = exp.make(sz, kThreads);
    const stf::FlowImage coor_image = stf::FlowImage::compile(wl_coor.flow);
    sim::CentralizedParams cp;
    cp.workers = kThreads - 1;  // 23 workers + master = 24 threads
    const auto coor_rep = sim::simulate_centralized(coor_image, cp);
    const auto coor_e =
        metrics::decompose_synthetic(coor_rep.stats.cumulative());

    table.row()
        .integer(static_cast<long long>(sz))
        .num(rio_e.e_p, 3)
        .num(rio_e.e_r, 3)
        .num(rio_e.product(), 3)
        .num(coor_e.e_p, 3)
        .num(coor_e.e_r, 3)
        .num(coor_e.product(), 3);
  }
  bench::emit(table, opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  const std::uint64_t n = opt.quick ? 2048 : 16384;

  bench::header("Figure 8",
                "efficiency decomposition vs task size, RIO vs centralized "
                "OoO, 24 virtual threads, counter kernel (e_g = e_l = 1)");

  const std::vector<Experiment> experiments = {
      {"1: independent tasks",
       [n](std::uint64_t cost, std::uint32_t workers) {
         workloads::IndependentSpec spec;
         spec.num_tasks = n;
         spec.task_cost = cost;
         spec.body = workloads::BodyKind::kNone;
         spec.num_workers = workers;
         return workloads::make_independent(spec);
       }},
      {"2: random dependencies (128 data, 2R+1W per task)",
       [n](std::uint64_t cost, std::uint32_t workers) {
         workloads::RandomDepsSpec spec;
         spec.num_tasks = n;
         spec.task_cost = cost;
         spec.body = workloads::BodyKind::kNone;
         spec.num_workers = workers;
         return workloads::make_random_deps(spec);
       }},
      {"3: matrix-multiplication DAG",
       [](std::uint64_t cost, std::uint32_t workers) {
         workloads::GemmDagSpec spec;
         spec.tiles = 24;  // 13824 tasks
         spec.task_cost = cost;
         spec.body = workloads::BodyKind::kNone;
         spec.num_workers = workers;
         return workloads::make_gemm_dag(spec);
       }},
      {"4: LU factorization DAG (no pivoting)",
       [](std::uint64_t cost, std::uint32_t workers) {
         workloads::LuDagSpec spec;
         spec.row_tiles = 32;  // 11440 tasks
         spec.col_tiles = 32;
         spec.task_cost = cost;
         spec.body = workloads::BodyKind::kNone;
         spec.num_workers = workers;
         return workloads::make_lu_dag(spec);
       }},
  };

  for (const auto& exp : experiments) run_experiment(exp, opt);

  std::cout
      << "Paper shape: the centralized model's e_p collapses below ~1e5-1e6\n"
         "instructions on every experiment (master-bound); RIO keeps high\n"
         "efficiency to ~1e3-1e4 on experiments 1 and 3 (few/read-mostly\n"
         "synchronizations) and is limited by e_p (dependency stalls) on\n"
         "experiments 2 and 4.\n";
  return 0;
}
