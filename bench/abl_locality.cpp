// Locality ablation — what a mapping-aware static placement buys when
// dependencies cost cache transfers.
//
// The simulator's cross_worker_latency models the cost of a dependency
// whose producer and consumer live on different workers (cache-to-cache /
// cross-socket transfer). The decentralized model pays it only on edges
// its STATIC mapping actually cuts; the queue-fed centralized model gives
// no producer-consumer affinity and pays on (almost) every edge. This is
// the simulator-level counterpart of the paper's locality efficiency e_l.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/sim.hpp"
#include "workloads/lu.hpp"
#include "workloads/stencil.hpp"

using namespace rio;

namespace {

void sweep(const char* name, const workloads::Workload& wl,
           const rt::Mapping& good, const rt::Mapping& bad,
           const bench::Options& opt) {
  std::cout << "-- " << name << " --\n";
  support::Table table({"cross_latency_ticks", "rio_good_map_ms",
                        "rio_bad_map_ms", "centralized_ms"});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  for (std::uint64_t lat : {0ull, 5'000ull, 20'000ull, 50'000ull}) {
    sim::DecentralizedParams dp;
    dp.workers = 24;
    dp.cross_worker_latency = lat;
    sim::CentralizedParams cp;
    cp.workers = 23;
    cp.cross_worker_latency = lat;
    const auto good_rep = sim::simulate_decentralized(image, good, dp);
    const auto bad_rep = sim::simulate_decentralized(image, bad, dp);
    const auto coor_rep = sim::simulate_centralized(image, cp);
    table.row()
        .integer(static_cast<long long>(lat))
        .num(static_cast<double>(good_rep.makespan) * 1e-6, 2)
        .num(static_cast<double>(bad_rep.makespan) * 1e-6, 2)
        .num(static_cast<double>(coor_rep.makespan) * 1e-6, 2);
  }
  bench::emit(table, opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);

  bench::header("Locality ablation",
                "cross-worker dependency latency vs mapping quality, 24 "
                "virtual threads, fine-grained tasks");

  {
    // Stencil at fine granularity: transfers are comparable to task cost,
    // so placement decisions become visible.
    workloads::StencilSpec spec;
    spec.chunks = 96;
    spec.steps = opt.quick ? 16 : 64;
    spec.task_cost = 5'000;
    spec.body = workloads::BodyKind::kNone;
    spec.num_workers = 24;
    auto wl = workloads::make_stencil_dag(spec);
    sweep("1-D stencil (neighbour edges)", wl, wl.mapping(24),
          rt::mapping::round_robin(24), opt);
  }
  {
    // LU: the owner-computes 2-D cyclic map localizes the C-chain updates.
    workloads::LuDagSpec spec;
    spec.row_tiles = opt.quick ? 12 : 20;
    spec.col_tiles = spec.row_tiles;
    spec.task_cost = 50'000;
    spec.body = workloads::BodyKind::kNone;
    spec.num_workers = 24;
    auto wl = workloads::make_lu_dag(spec);
    sweep("tiled LU (panel/update edges)", wl, wl.mapping(24),
          rt::mapping::round_robin(24), opt);
  }

  std::cout
      << "Two effects, both honest outputs of the model:\n"
         "  1. at fine granularity the centralized model loses on BOTH\n"
         "     fronts: the master bottleneck (flat floor at lat=0) plus a\n"
         "     transfer cost on every edge (it grows with the latency),\n"
         "     while static maps pay only on the edges they cut.\n"
         "  2. Between static maps the winner is workload-dependent: at\n"
         "     this depth an interleaved placement pipelines the stencil's\n"
         "     boundary transfers better than contiguous blocks, while the\n"
         "     in-order batching of several tasks per worker hides latency\n"
         "     entirely at coarse granularity (rerun with a larger\n"
         "     --task-size to see the columns converge).\n";
  return 0;
}
