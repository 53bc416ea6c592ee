// Mixed-granularity LU with partial pivoting — the experiment the paper's
// conclusion asks for.
//
// Section 1 motivates the whole study with HPL: coarse trailing updates
// interleaved with fine-grained pivoting that centralized runtimes cannot
// execute efficiently. Section 6 proposes "combining both execution
// models (and thus requiring only partial mappings)". This bench runs that
// combination on the pivoted-LU flow (workloads::make_hpl_lu):
//
//   * pure centralized OoO       (no mapping needed, master-bound on the
//                                 fine pivot tasks)
//   * pure decentralized in-order (needs a FULL mapping, cheap fine tasks,
//                                 but static placement of the coarse ones)
//   * hybrid                     (partial mapping: fine tasks static,
//                                 coarse tasks dynamic)
//
// Simulated at 24 virtual threads; a --real mode runs the actual runtimes
// on a small instance for a host-level check.
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "coor/coor.hpp"
#include "hybrid/hybrid.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "support/clock.hpp"
#include "stf/sequential.hpp"
#include "workloads/workloads.hpp"

using namespace rio;

namespace {

void simulated(const bench::Options& opt) {
  const std::uint32_t nt = opt.quick ? 4 : 8;
  const std::uint32_t dim = opt.quick ? 64 : 128;
  bench::header("HPL mixed granularity (simulated)",
                "pivoted LU, " + std::to_string(nt) + "x" + std::to_string(nt) +
                    " tiles of " + std::to_string(dim) +
                    "^2, 24 virtual threads");

  workloads::TiledMatrix a(nt, dim);
  a.fill_random(123);
  auto hpl = workloads::make_hpl_lu(a, 24);
  const auto& flow = hpl.workload.flow;

  std::size_t fine = 0;
  for (auto o : hpl.workload.owners) fine += o != stf::kInvalidWorker;
  std::cout << flow.num_tasks() << " tasks (" << fine << " fine pivoting + "
            << flow.num_tasks() - fine << " coarse update)\n\n";

  sim::DecentralizedParams dp;
  dp.workers = 24;
  sim::CentralizedParams cp;
  cp.workers = 24;  // + master = 25 threads; hybrid/decentralized use 24+1

  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const auto coor_rep = sim::simulate_centralized(image, cp);
  const auto rio_rep =
      sim::simulate_decentralized(image, hpl.full_mapping(), dp);
  const auto phases =
      hybrid::partition(image.size(), hpl.partial_mapping(), 24);
  const auto hyb_rep = sim::simulate_hybrid(image, phases, dp, cp);

  stf::DependencyGraph graph(flow);
  const auto ideal = sim::ideal_makespan(flow, graph, 24);

  support::Table table({"model", "time_ms", "vs_ideal", "mapping_required"});
  auto row = [&](const char* name, const sim::Report& rep, const char* map) {
    table.row()
        .str(name)
        .num(static_cast<double>(rep.makespan) * 1e-6, 3)
        .num(static_cast<double>(rep.makespan) / static_cast<double>(ideal),
             2)
        .str(map);
  };
  row("centralized OoO", coor_rep, "none");
  row("decentralized in-order", rio_rep, "FULL (every task)");
  row("hybrid (paper Sec. 6)", hyb_rep, "partial (fine tasks only)");
  table.row().str("ideal").num(static_cast<double>(ideal) * 1e-6, 3).num(1.0, 2).str("-");
  bench::emit(table, opt);

  std::cout << "Expected shape: the centralized model pays its per-task\n"
               "dispatch on every fine pivoting task; the hybrid model\n"
               "matches the pure in-order runtime without demanding a\n"
               "mapping for the coarse phase (" << phases.size()
            << " phases).\n";
}

void real_threads(const bench::Options& opt) {
  const std::uint32_t nt = opt.quick ? 3 : 6;
  const std::uint32_t dim = 16;
  const std::uint32_t workers = 2;
  bench::header("HPL mixed granularity (real threads)",
                std::to_string(nt) + "x" + std::to_string(nt) + " tiles of " +
                    std::to_string(dim) + "^2, " + std::to_string(workers) +
                    " workers on the host");

  auto run = [&](const char* name, auto&& body) {
    workloads::TiledMatrix a(nt, dim);
    a.fill_random(321);
    workloads::TiledMatrix original = a;
    auto hpl = workloads::make_hpl_lu(a, workers);
    support::Stopwatch sw;
    body(hpl);
    const double ms = sw.elapsed_s() * 1e3;
    const double res = workloads::hpl_residual(original, a, *hpl.perm);
    std::cout << "  " << name << ": " << ms << " ms, residual " << res
              << (res < 1e-12 ? " (ok)" : " (FAIL)") << "\n";
  };

  run("sequential          ", [&](workloads::HplWorkload& h) {
    const stf::FlowImage image = stf::FlowImage::compile(h.workload.flow);
    stf::SequentialExecutor{}.run(image);
  });
  run("centralized OoO     ", [&](workloads::HplWorkload& h) {
    coor::Runtime rt(engine::Launch{.workers = workers});
    const stf::FlowImage image = stf::FlowImage::compile(h.workload.flow);
    rt.run(image);
  });
  run("decentralized (RIO) ", [&](workloads::HplWorkload& h) {
    rt::Runtime rt(engine::Launch{.workers = workers});
    const stf::FlowImage image = stf::FlowImage::compile(h.workload.flow);
    rt.run(image, h.full_mapping());
  });
  run("hybrid              ", [&](workloads::HplWorkload& h) {
    hybrid::Runtime rt(engine::Launch{.workers = workers});
    const stf::FlowImage image = stf::FlowImage::compile(h.workload.flow);
    rt.run(image, h.partial_mapping());
  });
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  simulated(opt);
  real_threads(opt);
  return 0;
}
