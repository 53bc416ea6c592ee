// micro_recovery — price of the worker-loss recovery machinery.
//
// docs/robustness.md ("Worker loss and recovery") makes two promises this
// bench prices on the real engines:
//
//   * checkpointing is cheap — a live stf::CompletionBoard adds one relaxed
//     fetch_or per completed task (plus one sampled counter bump every 64),
//     so a fault-free run with the board attached must sit within noise of
//     the same run without it;
//   * recovery is bounded — after one mid-flow worker death, the
//     supervisor's restore + evict-and-remap + resume loop costs time
//     proportional to the surviving work, not to the whole flow: completed
//     tasks replay as protocol no-ops, so the resumed attempt only pays
//     full price for the unfinished suffix. Detection latency is the
//     watchdog tripwire's (~window/8) and is kept out of recovery_ms by
//     running a deliberately tight window here.
//
// Workloads: the checkpoint section reuses micro_obs's 64-chain stall-free
// construction (richer protocol traffic); the recovery section uses fully
// INDEPENDENT single-write tasks, because a chain workload that was
// stall-free at 4 workers serializes badly once the eviction leaves 3
// (64 % 3 != 0 interleaves every chain across workers) — that would price
// the remapped schedule, not the recovery machinery.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/registry.hpp"
#include "engine/supervisor.hpp"
#include "support/clock.hpp"
#include "support/fault.hpp"
#include "rio/mapping.hpp"
#include "stf/frontier.hpp"
#include "stf/task_flow.hpp"

using namespace rio;

namespace {

// Task i writes chain i mod kChains; kChains divisible by every tested
// worker count, so round-robin keeps each chain on one worker and the
// measured time contains no dependency stalls.
constexpr std::size_t kChains = 64;

stf::TaskFlow make_chains(std::size_t n) {
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> chain;
  chain.reserve(kChains);
  for (std::size_t c = 0; c < kChains; ++c)
    chain.push_back(
        flow.create_data<std::uint64_t>("chain" + std::to_string(c)));
  for (std::size_t i = 0; i < n; ++i)
    flow.add_virtual(0, {stf::write(chain[i % kChains])});
  return flow;
}

// Every task writes its own datum: no cross-worker dependencies under ANY
// mapping, so the resumed (evicted) schedule is as stall-free as the
// original and the measured recovery time is pure machinery cost.
stf::TaskFlow make_independent(std::size_t n) {
  stf::TaskFlow flow;
  for (std::size_t i = 0; i < n; ++i)
    flow.add_virtual(
        0, {stf::write(flow.create_data<std::uint64_t>("d" +
                                                       std::to_string(i)))});
  return flow;
}

template <typename RunFn>
double min_wall_ms(int reps, RunFn&& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    support::Stopwatch sw;
    run();
    best = std::min(best, static_cast<double>(sw.elapsed_ns()) * 1e-6);
  }
  return best;
}

/// The registry backends whose caps advertise supports_recovery — the
/// exact set the supervisor can evict-and-remap over.
std::vector<const engine::Backend*> recovery_backends() {
  std::vector<const engine::Backend*> out;
  for (const engine::Backend* b : engine::Registry::instance().all())
    if (b->caps().supports_recovery) out.push_back(b);
  return out;
}

engine::Launch base_launch(const engine::Backend& b, std::uint32_t workers) {
  engine::Launch l;
  l.workers = workers;
  l.collect_stats = false;
  if (b.caps().needs_mapping) l.mapping = rt::mapping::round_robin(workers);
  return l;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::JsonReporter json("recovery", opt);

  const std::uint32_t workers = 4;
  const std::size_t n = opt.quick ? (1u << 12) : (1u << 15);
  const int reps = opt.quick ? 3 : 7;

  bench::header("micro_recovery",
                "checkpointed completion frontier + evict-and-remap "
                "recovery cost on every supports_recovery engine");
  json.note("workers", std::to_string(workers));
  json.note("tasks", std::to_string(n));

  const std::vector<const engine::Backend*> engines = recovery_backends();

  // ------------------------------------------------------------------
  // (a) Fault-free checkpoint overhead: the same run with and without a
  //     live CompletionBoard at the default 64-completion sample stride.
  // ------------------------------------------------------------------
  {
    const stf::TaskFlow flow = make_chains(n);
    const stf::FlowImage image = stf::FlowImage::compile(flow);

    support::Table table(
        {"engine", "mode", "wall_ms", "ns_per_task", "delta_ns"});
    for (const engine::Backend* b : engines) {
      const engine::Launch launch = base_launch(*b, workers);

      const double off_ms = min_wall_ms(
          reps, [&] { (void)b->run(image, launch); });

      stf::CompletionBoard board;
      board.reset(0, image.size(), stf::CompletionBoard::kDefaultSampleEvery);
      engine::Launch with_board = launch;
      with_board.checkpoint = &board;
      const double board_ms = min_wall_ms(reps, [&] {
        board.clear();
        (void)b->run(image, with_board);
      });

      const auto add = [&](const char* mode, double ms) {
        table.row()
            .str(std::string(b->name()))
            .str(mode)
            .num(ms, 3)
            .num(ms * 1e6 / static_cast<double>(n), 1)
            .num((ms - off_ms) * 1e6 / static_cast<double>(n), 1);
      };
      add("off", off_ms);
      add("board", board_ms);
    }
    bench::emit(table, opt, json, "checkpoint_overhead");
    std::cout << "Expected shape: board within noise of off (one relaxed "
                 "fetch_or per task; the sampled counter bumps once per 64 "
                 "completions).\n\n";
  }

  // ------------------------------------------------------------------
  // (b) Recovery latency: one worker dies right after executing task
  //     n/2; engine::run_supervised restores the dirty spans, evicts the
  //     dead id and resumes from the captured frontier. recovery_ms is
  //     the supervisor's own clock (loss caught -> resumed run done), so
  //     it excludes the watchdog detection window.
  // ------------------------------------------------------------------
  {
    const std::vector<std::size_t> sizes =
        opt.quick ? std::vector<std::size_t>{1u << 10, 1u << 12}
                  : std::vector<std::size_t>{1u << 12, 1u << 14};

    support::Table table({"engine", "tasks", "wall_ms", "recovery_ms",
                          "evictions", "replayed"});
    for (const engine::Backend* b : engines) {
      for (const std::size_t sz : sizes) {
        const stf::TaskFlow flow = make_independent(sz);
        const stf::FlowImage image = stf::FlowImage::compile(flow);

        support::FaultPlan plan;
        plan.crash_tasks = {sz / 2};
        plan.max_crashes = 1;

        engine::Outcome last;
        const double wall_ms = min_wall_ms(reps, [&] {
          support::FaultInjector injector(plan);
          engine::Launch launch = base_launch(*b, workers);
          launch.fault = &injector;
          // Tight window so the tripwire (~window/8 poll) reports the
          // death in ~5ms instead of the production default.
          launch.watchdog_ns = 40'000'000;
          last = engine::run_supervised(*b, image, launch);
        });

        table.row()
            .str(std::string(b->name()))
            .integer(static_cast<std::uint64_t>(sz))
            .num(wall_ms, 3)
            .num(static_cast<double>(last.recovery_wall_ns) * 1e-6, 3)
            .integer(last.evictions)
            .integer(last.tasks_replayed);
      }
    }
    bench::emit(table, opt, json, "recovery_latency");
    std::cout << "Expected shape: recovery_ms grows with the unfinished "
                 "suffix plus the replayed-prefix no-op walk, and stays a "
                 "small fraction of wall_ms; replayed tracks the frontier "
                 "captured at the loss.\n";
  }

  bench::finish(json);
  return 0;
}
