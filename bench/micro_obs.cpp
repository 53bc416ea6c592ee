// micro_obs — per-task cost of the rio::obs telemetry layer.
//
// docs/observability.md promises that counters alone are cheap enough to
// leave on in production runs and that a disabled hub costs nothing. This
// bench prices all three tiers on the real rio engine with a stall-free
// chain workload (same construction as micro_unroll, so wall time is pure
// protocol + instrumentation cost):
//
//   * off        — Config::obs == nullptr: the per-worker lens is unbound
//                  and every obs call is a null-check;
//   * counters   — Hub without a recorder: per-worker cache-line-padded
//                  increments only; the engine's `timed` flag stays false,
//                  so no clock reads are added;
//   * recorder   — Hub with per-worker event rings: every task body becomes
//                  a timed span pushed into a fixed ring (two clock reads
//                  plus one 40-byte store per phase);
//   * sampled    — recorder at --sample 8: the ring keeps every 8th span,
//                  shaving the store (the clock reads remain), so this
//                  tier bounds what sampling can and cannot buy.
//
// Expected shape: counters within noise of off; recorder adds a bounded
// constant per task (clock reads dominate), comparable to collect_stats;
// sampled sits between counters and recorder.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "rio/mapping.hpp"
#include "rio/runtime.hpp"
#include "support/clock.hpp"
#include "support/thread_pool.hpp"
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
                    " empty single-write tasks, stall-free chains; per-task "
                    "telemetry cost: obs off vs counters vs counters+ring");
  json.note("tasks", std::to_string(n));

  const stf::TaskFlow flow = make_chains(n);
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  support::ThreadPool pool(
      *std::max_element(workers.begin(), workers.end()));

  support::Table table(
      {"workers", "mode", "wall_ms", "ns_per_task", "vs_off_ns"});
  for (const std::uint32_t w : workers) {
    const rt::Mapping mapping = rt::mapping::round_robin(w);

    const auto run_mode = [&](obs::Hub* hub) {
      rt::Runtime eng(rt::Config{.num_workers = w,
                                 .wait_policy = support::WaitPolicy::kSpin,
                                 .collect_stats = false,
                                 .obs = hub});
      eng.attach_pool(&pool);
      return min_wall_ms(reps, [&] {
        if (hub != nullptr) hub->reset();
        eng.run(image, mapping);
      });
    };

    const double off_ms = run_mode(nullptr);

    obs::HubOptions counters_only;
    counters_only.recorder = false;
    obs::Hub chub(counters_only);
    const double counters_ms = run_mode(&chub);

    obs::HubOptions with_ring;
    with_ring.recorder = true;
    obs::Hub rhub(with_ring);
    const double recorder_ms = run_mode(&rhub);

    obs::HubOptions sampled;
    sampled.recorder = true;
    sampled.sample = 8;
    obs::Hub shub(sampled);
    const double sampled_ms = run_mode(&shub);

    const auto add = [&](const char* mode, double ms) {
      table.row()
          .integer(w)
          .str(mode)
          .num(ms, 3)
          .num(ms * 1e6 / static_cast<double>(n), 1)
          .num((ms - off_ms) * 1e6 / static_cast<double>(n), 1);
    };
    add("off", off_ms);
    add("counters", counters_ms);
    add("counters+ring", recorder_ms);
    add("ring 1-in-8", sampled_ms);
  }
  bench::emit(table, opt, json, "obs_overhead");

  std::cout << "Expected shape: counters within noise of off (padded "
               "per-worker increments, no clock reads); counters+ring adds "
               "a bounded constant per task from the two clock reads and "
               "one ring store per phase; ring 1-in-8 keeps the clock reads "
               "but skips 7 of 8 stores.\n";
  bench::finish(json);
  return 0;
}
