// micro_obs — per-task cost of the rio::obs telemetry layer.
//
// docs/observability.md promises that counters alone are cheap enough to
// leave on in production runs, that a disabled hub costs nothing, and that
// the default statistics and sampled recording cost less than timing every
// span. This bench prices each tier on the path users take,
// engine::Registry::find("rio")->run(image, launch), with a stall-free
// chain workload (same construction as micro_unroll, so wall time is pure
// protocol + instrumentation cost):
//
//   * off        — collect_stats = false and no hub: the per-worker lens is
//                  unbound and every obs call is a null-check;
//   * stats      — the default launch (collect_stats = true), no hub: the
//                  span sampler times about one executed task in 64;
//   * counters   — a Hub without a recorder, collect_stats = false:
//                  per-worker cache-line-padded increments, no clock reads;
//   * counters+ring — a Hub with per-worker event rings: every task is
//                  timed, its body and release pushed into a fixed ring
//                  (three clock reads and two 40-byte stores per task);
//   * ring 1-in-8 — the recorder at sample 8: the sampler times every 8th
//                  task before any clock read, so the other seven read no
//                  clock and store nothing.
//
// Expected shape: counters within noise of off; stats a few ns above off;
// counters+ring adds a bounded constant per task (clock reads dominate);
// ring 1-in-8 costs about an eighth of that.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/registry.hpp"
#include "obs/obs.hpp"
#include "rio/mapping.hpp"
#include "support/clock.hpp"
#include "stf/flow_image.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::JsonReporter json("obs_overhead", opt);

  const std::size_t n = opt.quick ? (1u << 13) : (1u << 16);
  const int reps = opt.quick ? 3 : 7;
  const std::vector<std::uint32_t> workers = {1, 2, 4};

  bench::header("micro_obs",
                std::to_string(n) +
                    " empty single-write tasks, stall-free chains, through "
                    "Registry::find(\"rio\"); per-task telemetry cost: off "
                    "vs default stats vs counters vs counters+ring");
  json.note("tasks", std::to_string(n));

  const stf::TaskFlow flow = make_chains(n);
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const engine::Backend& rio_eng = *engine::Registry::instance().find("rio");

  support::Table table(
      {"workers", "mode", "wall_ms", "ns_per_task", "vs_off_ns"});
  for (const std::uint32_t w : workers) {
    const auto run_mode = [&](bool stats, obs::Hub* hub) {
      engine::Launch launch;
      launch.workers = w;
      launch.mapping = rt::mapping::round_robin(w);
      launch.collect_stats = stats;
      launch.obs = hub;
      return min_wall_ms(reps, [&] {
        if (hub != nullptr) hub->reset();
        (void)rio_eng.run(image, launch);
      });
    };

    const double off_ms = run_mode(false, nullptr);
    const double stats_ms = run_mode(true, nullptr);

    obs::HubOptions counters_only;
    counters_only.recorder = false;
    obs::Hub chub(counters_only);
    const double counters_ms = run_mode(false, &chub);

    obs::HubOptions with_ring;
    with_ring.recorder = true;
    obs::Hub rhub(with_ring);
    const double recorder_ms = run_mode(false, &rhub);

    obs::HubOptions sampled;
    sampled.recorder = true;
    sampled.sample = 8;
    obs::Hub shub(sampled);
    const double sampled_ms = run_mode(false, &shub);

    const auto add = [&](const char* mode, double ms) {
      table.row()
          .integer(w)
          .str(mode)
          .num(ms, 3)
          .num(ms * 1e6 / static_cast<double>(n), 1)
          .num((ms - off_ms) * 1e6 / static_cast<double>(n), 1);
    };
    add("off", off_ms);
    add("stats", stats_ms);
    add("counters", counters_ms);
    add("counters+ring", recorder_ms);
    add("ring 1-in-8", sampled_ms);
  }
  bench::emit(table, opt, json, "obs_overhead");

  std::cout << "Expected shape: counters within noise of off (padded "
               "per-worker increments, no clock reads); stats a few ns "
               "above off (one timed task in about 64); counters+ring adds "
               "a bounded constant per task from three clock reads and two "
               "ring stores; ring 1-in-8 pays them on one task in 8.\n";
  bench::finish(json);
  return 0;
}
