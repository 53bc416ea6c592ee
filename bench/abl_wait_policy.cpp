// abl_wait_policy — the wait-policy table (BENCH_wait_policy.json).
//
// Algorithm 2's two wait loops, coor's ready-ring pops and the block
// policy's doorbell parks all wait through support::Backoff
// (support/wait.hpp). This bench prices each policy on the path users take:
// every cell is one engine::Registry backend run through Backend::run at
// W = 3 with pinned workers and the workload's own mapping, on the four
// bench/e2e flow shapes:
//
//   * fine-independent — 16384 empty tasks without accesses: nothing ever
//     waits, so the rows price publication and the coor master;
//   * random-deps      — 4096 tasks, 2 reads + 1 readwrite over 128
//     objects: many short cross-worker waits;
//   * chain-handoff    — 4096 readwrite tasks on one object, round-robin
//     owners: every dependency crosses workers on the critical path, so the
//     rows price the wake-up latency of each policy;
//   * cholesky-numeric — 8x8 tiles of 96x96 doubles: coarse kernels, where
//     the policy should not matter.
//
// seq runs once per flow as the reference (it never waits). Each row gives
// the median and quartiles of `repeats` timed runs, one per round, so that
// a slow phase of the host hits every cell alike. The cell order is
// shuffled anew each round (fixed seed), and each timed run follows
// kWarmRuns untimed runs of the same cell: the first runs after another
// engine pay for waking this executor's parked pool threads, which is a
// cost of the cell order, not of the policy (a fixed order put 10-70% on
// whichever policy came first on fine-independent). The inputs
// are restored before every run. `vs_best` divides a row's median by the
// best policy's median for the same engine and flow.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"
#include "stf/data_registry.hpp"
#include "stf/flow_image.hpp"
#include "workloads/workloads.hpp"

using namespace rio;

namespace {

constexpr std::uint32_t kWorkers = 3;
constexpr int kWarmRuns = 2;

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One flow shape: its workload, compiled image and pristine inputs.
struct Flow {
  std::string name;
  std::unique_ptr<workloads::TiledMatrix> matrix;  // cholesky's data
  workloads::Workload wl;
  std::unique_ptr<stf::FlowImage> image;
  stf::DataSnapshot pristine;
};

std::vector<Flow> make_flows(bool quick) {
  using workloads::BodyKind;
  std::vector<Flow> flows(4);
  flows[0].name = "fine-independent";
  flows[0].wl = workloads::make_independent({.num_tasks = quick ? 2048u : 16384u,
                                             .task_cost = 0,
                                             .body = BodyKind::kCounter,
                                             .num_workers = kWorkers});
  flows[1].name = "random-deps";
  flows[1].wl = workloads::make_random_deps({.num_tasks = quick ? 1024u : 4096u,
                                             .num_data = 128,
                                             .reads_per_task = 2,
                                             .writes_per_task = 1,
                                             .task_cost = 2000,
                                             .body = BodyKind::kFold,
                                             .seed = 42,
                                             .num_workers = kWorkers});
  flows[2].name = "chain-handoff";
  flows[2].wl = workloads::make_chain({.num_tasks = quick ? 1024u : 4096u,
                                       .task_cost = 200,
                                       .body = BodyKind::kFold,
                                       .num_workers = kWorkers});
  flows[3].name = "cholesky-numeric";
  flows[3].matrix = std::make_unique<workloads::TiledMatrix>(quick ? 4 : 8,
                                                             quick ? 48 : 96);
  flows[3].matrix->fill_random_diagonally_dominant(42);
  flows[3].matrix->symmetrize();
  flows[3].wl = workloads::make_cholesky_numeric(*flows[3].matrix, kWorkers);
  for (Flow& f : flows) {
    f.image = std::make_unique<stf::FlowImage>(
        stf::FlowImage::compile(f.wl.flow));
    const stf::DataRegistry& reg = f.image->registry();
    for (stf::DataId id = 0; id < reg.size(); ++id) f.pristine.add(reg, id);
  }
  return flows;
}

/// One table row: a (flow, engine, policy) cell and its samples.
struct Cell {
  Flow* flow;
  const engine::Backend* backend;
  const char* policy;  // "none" for seq
  engine::Launch launch;
  std::vector<double> ms;
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::JsonReporter json("wait_policy", opt);
  const int repeats = opt.quick ? 3 : 21;

  bench::header("Ablation: wait policy",
                "run time per policy x engine x e2e flow shape through "
                "Backend::run, W = 3 (median and quartiles)");

  std::vector<Flow> flows = make_flows(opt.quick);
  const std::vector<support::WaitPolicy> policies = {
      support::WaitPolicy::kSpinYield, support::WaitPolicy::kBlock};
  const engine::Registry& registry = engine::Registry::instance();

  std::vector<Cell> cells;
  for (Flow& f : flows) {
    engine::Launch base;
    base.workers = kWorkers;
    base.pin_workers = true;
    base.mapping = f.wl.mapping(kWorkers);
    cells.push_back({&f, registry.find("seq"), "none", base, {}});
    for (const char* name : {"rio", "rio-pruned", "coor"}) {
      for (const support::WaitPolicy policy : policies) {
        engine::Launch launch = base;
        launch.wait_policy = policy;
        cells.push_back(
            {&f, registry.find(name), support::to_string(policy), launch, {}});
      }
    }
  }

  auto run_once = [](Cell& c) {
    c.flow->pristine.restore(c.flow->image->registry());
    const std::uint64_t t0 = support::monotonic_ns();
    (void)c.backend->run(*c.flow->image, c.launch);
    return static_cast<double>(support::monotonic_ns() - t0) * 1e-6;
  };
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  support::Xoshiro256 rng(42);
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.bounded(i)]);
    for (const std::size_t i : order) {
      for (int w = 0; w < kWarmRuns; ++w) (void)run_once(cells[i]);
      cells[i].ms.push_back(run_once(cells[i]));
    }
  }

  support::Table table({"flow", "engine", "policy", "repeats", "p25_ms",
                        "median_ms", "p75_ms", "vs_best"});
  for (const Cell& c : cells) {
    double best = 1e300;
    for (const Cell& o : cells)
      if (o.flow == c.flow && o.backend == c.backend)
        best = std::min(best, quantile(o.ms, 0.5));
    const double median = quantile(c.ms, 0.5);
    table.row()
        .str(c.flow->name)
        .str(std::string(c.backend->name()))
        .str(c.policy)
        .integer(static_cast<long long>(c.ms.size()))
        .num(quantile(c.ms, 0.25), 3)
        .num(median, 3)
        .num(quantile(c.ms, 0.75), 3)
        .num(median / best, 3);
  }
  bench::emit(table, opt, json, "policies");
  json.note("workers", std::to_string(kWorkers));
  json.note("pin_workers", "true");

  std::cout << "Expected shape: the default (spin-yield) stays within 10% of\n"
               "the best policy on every rio row; block pays a futex round\n"
               "trip on chain-handoff, and no policy matters on cholesky.\n";
  bench::finish(json);
  return 0;
}
