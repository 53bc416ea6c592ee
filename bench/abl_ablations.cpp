// Ablation benches for the design choices DESIGN.md calls out:
//
//   A. wait policy (spin / spin-yield / block) on a dependency-heavy flow
//      executed by the REAL RIO runtime;
//   B. task pruning (Section 3.5) on the simulator, sweeping worker count;
//   C. mapping family (round-robin vs block vs 2-D block-cyclic) on the
//      simulated LU DAG — the "proper task mapping supplied by the
//      programmer" premise of the paper's abstract;
//   D. centralized scheduler variant (fifo / lifo / locality / locality+
//      stealing) on the REAL centralized runtime.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "coor/coor.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "support/clock.hpp"
#include "workloads/workloads.hpp"

using namespace rio;

namespace {

void ablate_wait_policy(const bench::Options& opt) {
  bench::header("Ablation A", "RIO wait policy on a cross-worker LU flow "
                              "(real threads; oversubscription-sensitive)");
  const std::uint32_t nt = opt.quick ? 4 : 6;
  support::Table table({"policy", "time_ms", "waits"});
  for (auto policy :
       {support::WaitPolicy::kSpin, support::WaitPolicy::kSpinYield,
        support::WaitPolicy::kBlock}) {
    workloads::LuDagSpec spec;
    spec.row_tiles = nt;
    spec.col_tiles = nt;
    spec.task_cost = 20'000;
    spec.num_workers = 2;
    auto wl = workloads::make_lu_dag(spec);
    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    rt::Runtime runtime(engine::Launch{.workers = 2, .wait_policy = policy});
    support::Stopwatch sw;
    const auto stats = runtime.run(image, wl.mapping(2));
    std::uint64_t waits = 0;
    for (const auto& w : stats.workers) waits += w.waits;
    table.row()
        .str(support::to_string(policy))
        .num(sw.elapsed_s() * 1e3, 2)
        .integer(static_cast<long long>(waits));
  }
  bench::emit(table, opt);
}

void ablate_pruning(const bench::Options& opt) {
  bench::header("Ablation B", "task pruning vs full replay (simulated, "
                              "independent tasks, fixed work per worker)");
  support::Table table({"workers", "full_ms", "pruned_ms", "saving_pct"});
  const std::uint64_t per_worker = opt.quick ? 2048 : 16384;
  for (std::uint32_t w : {2u, 8u, 24u, 64u}) {
    workloads::IndependentSpec spec;
    spec.num_tasks = per_worker * w;
    spec.task_cost = 1000;
    spec.body = workloads::BodyKind::kNone;
    auto wl = workloads::make_independent(spec);
    sim::DecentralizedParams full;
    full.workers = w;
    auto pruned = full;
    pruned.pruned = true;
    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    const auto a =
        sim::simulate_decentralized(image, rt::mapping::round_robin(w), full);
    const auto b = sim::simulate_decentralized(
        image, rt::mapping::round_robin(w), pruned);
    table.row()
        .integer(w)
        .num(static_cast<double>(a.makespan) * 1e-6, 2)
        .num(static_cast<double>(b.makespan) * 1e-6, 2)
        .num(100.0 * (1.0 - static_cast<double>(b.makespan) /
                                static_cast<double>(a.makespan)),
             1);
  }
  bench::emit(table, opt);
}

void ablate_mapping(const bench::Options& opt) {
  bench::header("Ablation C", "mapping family on the simulated LU DAG "
                              "(24 workers): the static-mapping premise");
  const std::uint32_t nt = opt.quick ? 16 : 32;
  workloads::LuDagSpec spec;
  spec.row_tiles = nt;
  spec.col_tiles = nt;
  spec.task_cost = 50'000;
  spec.body = workloads::BodyKind::kNone;
  spec.num_workers = 24;
  auto wl = workloads::make_lu_dag(spec);
  const auto n = wl.flow.num_tasks();

  sim::DecentralizedParams dp;
  dp.workers = 24;
  stf::DependencyGraph graph(wl.flow);
  const auto ideal = sim::ideal_makespan(wl.flow, graph, 24);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);

  support::Table table({"mapping", "time_ms", "vs_ideal", "idle_share_pct"});
  auto eval = [&](const std::string& name, const rt::Mapping& m) {
    const auto rep = sim::simulate_decentralized(image, m, dp);
    const auto cum = rep.stats.cumulative();
    table.row()
        .str(name)
        .num(static_cast<double>(rep.makespan) * 1e-6, 2)
        .num(static_cast<double>(rep.makespan) / static_cast<double>(ideal),
             2)
        .num(100.0 * static_cast<double>(cum.idle_ns) /
                 static_cast<double>(cum.total()),
             1);
  };
  eval("round-robin", rt::mapping::round_robin(24));
  eval("block", rt::mapping::block(n, 24));
  eval("2d-block-cyclic(owner)", wl.mapping(24));
  bench::emit(table, opt);
  std::cout << "The owner-computes 2-D cyclic mapping is the \"proper\n"
               "mapping\" the paper's conclusions assume; block mapping\n"
               "serializes the factorization almost entirely.\n\n";
}

void ablate_scheduler(const bench::Options& opt) {
  bench::header("Ablation D", "centralized scheduler variants on the real "
                              "runtime (LU flow, counter tasks)");
  const std::uint32_t nt = opt.quick ? 4 : 6;
  support::Table table({"scheduler", "time_ms", "tasks"});
  struct Variant {
    const char* name;
    coor::SchedulerKind kind;
    bool steal;
  };
  for (const Variant& v :
       {Variant{"fifo", coor::SchedulerKind::kFifo, false},
        Variant{"lifo", coor::SchedulerKind::kLifo, false},
        Variant{"locality", coor::SchedulerKind::kLocality, false},
        Variant{"locality+steal", coor::SchedulerKind::kLocality, true},
        Variant{"priority(cp)", coor::SchedulerKind::kPriority, false}}) {
    workloads::LuDagSpec spec;
    spec.row_tiles = nt;
    spec.col_tiles = nt;
    spec.task_cost = 20'000;
    auto wl = workloads::make_lu_dag(spec);
    if (v.kind == coor::SchedulerKind::kPriority) {
      // Critical-path (bottom-level) priorities.
      stf::DependencyGraph g(wl.flow);
      const auto levels = g.bottom_levels(wl.flow);
      for (stf::TaskId t = 0; t < wl.flow.num_tasks(); ++t)
        wl.flow.set_priority(t, static_cast<std::int32_t>(levels[t]));
    }
    coor::Runtime runtime(engine::Launch{.workers = 2,
                                         .scheduler = v.kind,
                                         .work_stealing = v.steal});
    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    support::Stopwatch sw;
    const auto stats = runtime.run(image);
    table.row()
        .str(v.name)
        .num(sw.elapsed_s() * 1e3, 2)
        .integer(static_cast<long long>(stats.tasks_executed()));
  }
  bench::emit(table, opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  ablate_wait_policy(opt);
  ablate_pruning(opt);
  ablate_mapping(opt);
  ablate_scheduler(opt);
  return 0;
}
