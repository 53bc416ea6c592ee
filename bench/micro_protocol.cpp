// micro_protocol — wait/notify hot-path cost of both runtimes.
//
// Two stall-free workload shapes (round-robin mapping keeps every chain on
// one worker, so wall time is pure unroll + protocol publication cost):
//
//   * section "protocol" — the micro_unroll shape (1 write/task, 64
//     chains), swept across workers x policy x engine, so its rows are
//     directly comparable with BENCH_unroll.json;
//   * section "fan" — 8 writes/task (8 chain groups x 8 chains), where a
//     per-word notify would dominate the block policy: the shape that
//     prices the doorbell batching (docs/perf.md keeps the historical
//     per-word A/B numbers).
//
// Engines:
//   * rio / rio-pruned — Algorithm 2 publications; under kBlock the
//     per-worker doorbells batch wakeups (src/rio/doorbell.hpp);
//   * coor-locked — centralized runtime, mutex+condvar ReadyQueue;
//   * coor-ring — centralized runtime, wait-free MPMC ready ring
//     (coor/ready_ring.hpp).
//
// Each configuration is timed cold (no telemetry, collect_stats off), then
// re-run once with an obs::Hub attached to count wakeups: wakeups/task is
// the notify-attempt rate, issued/task the real syscall rate, elided/task
// the batching/elision win. BENCH_protocol.json is the trend file
// tools/run_checks.sh refreshes and validates (docs/perf.md).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coor/runtime.hpp"
#include "obs/obs.hpp"
#include "rio/mapping.hpp"
#include "rio/runtime.hpp"
#include "support/clock.hpp"
#include "support/thread_pool.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"

using namespace rio;

namespace {

constexpr std::size_t kChains = 64;

// micro_unroll shape: task i writes chain i mod kChains; kChains is
// divisible by every tested worker count, so round-robin keeps each chain
// worker-local and the run is stall-free by construction.
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

// Fan shape: task i writes all kFan chains of group i mod kGroups. Still
// stall-free (group g tasks stay on worker g mod w for every tested w),
// but each task makes kFan publications — the per-word notify multiplier.
constexpr std::size_t kGroups = 8;
constexpr std::size_t kFan = kChains / kGroups;

stf::TaskFlow make_fans(std::size_t n) {
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> chain;
  chain.reserve(kChains);
  for (std::size_t c = 0; c < kChains; ++c)
    chain.push_back(
        flow.create_data<std::uint64_t>("chain" + std::to_string(c)));
  for (std::size_t i = 0; i < n; ++i) {
    stf::AccessList acc;
    for (std::size_t j = 0; j < kFan; ++j)
      acc.push_back(stf::write(chain[(i % kGroups) * kFan + j]));
    flow.add_virtual(0, acc);
  }
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

struct Sweep {
  bench::JsonReporter* json = nullptr;
  const bench::Options* opt = nullptr;
  support::ThreadPool* pool = nullptr;
  std::size_t n = 0;
  int reps = 0;
  bool with_coor = false;  ///< coor rows only where comparable (1 write/task)
};

void run_section(const Sweep& s, const char* section,
                 const stf::FlowImage& image) {
  support::Table table({"workers", "policy", "engine", "wall_ms",
                        "ns_per_task", "wakeups_per_task", "issued_per_task",
                        "elided_per_task"});
  const double dn = static_cast<double>(s.n);

  for (const std::uint32_t w : {1u, 2u, 4u}) {
    const rt::Mapping mapping = rt::mapping::round_robin(w);
    for (const support::WaitPolicy policy :
         {support::WaitPolicy::kSpinYield, support::WaitPolicy::kBlock}) {
      // One timed (telemetry-free) + one counted (obs-attached) engine per
      // configuration; the counted run never contributes to wall_ms.
      // make_run constructs the engine eagerly (outside the stopwatch, as
      // micro_unroll does) and returns the per-rep run closure, so reps
      // after the first measure steady state: cached pruned plan, recycled
      // sync-word arenas.
      const auto measure = [&](const char* engine, auto&& make_run) {
        const double ms = min_wall_ms(s.reps, make_run(nullptr));
        obs::Hub hub;
        make_run(&hub)();
        const obs::CounterSnapshot snap = hub.counter_snapshot();
        const auto per_task = [&](obs::Counter c) {
          return static_cast<double>(snap.total(c)) / dn;
        };
        table.row()
            .integer(w)
            .str(support::to_string(policy))
            .str(engine)
            .num(ms, 3)
            .num(ms * 1e6 / dn, 1)
            .num(per_task(obs::Counter::kWakeups), 3)
            .num(per_task(obs::Counter::kWakeupsIssued), 3)
            .num(per_task(obs::Counter::kWakeupsElided), 3);
      };

      const auto rio_run = [&](bool pruned) {
        return [&, pruned](obs::Hub* hub) {
          engine::Launch cfg;
          cfg.workers = w;
          cfg.wait_policy = policy;
          cfg.collect_stats = false;
          cfg.obs = hub;
          auto eng = std::make_shared<rt::Runtime>(cfg);
          eng->attach_pool(s.pool);
          return [&, eng, pruned] {
            if (pruned)
              eng->run_pruned(image, mapping);
            else
              eng->run(image, mapping);
          };
        };
      };

      measure("rio", rio_run(false));
      measure("rio-pruned", rio_run(true));
      if (s.with_coor) {
        const auto coor_run = [&](coor::QueueKind queue) {
          return [&, queue](obs::Hub* hub) {
            engine::Launch cfg;
            cfg.workers = w;
            cfg.queue = queue;
            cfg.wait_policy = policy;
            cfg.collect_stats = false;
            cfg.obs = hub;
            auto eng = std::make_shared<coor::Runtime>(cfg);
            eng->attach_pool(s.pool);
            return [&, eng] { eng->run(image); };
          };
        };
        measure("coor-locked", coor_run(coor::QueueKind::kLocked));
        measure("coor-ring", coor_run(coor::QueueKind::kRing));
      }
    }
  }
  bench::emit(table, *s.opt, *s.json, section);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::JsonReporter json("protocol", opt);

  const std::size_t n = opt.quick ? (1u << 13) : (1u << 16);
  const int reps = opt.quick ? 3 : 7;

  bench::header("micro_protocol",
                std::to_string(n) +
                    " stall-free virtual tasks; wait/notify hot-path cost "
                    "per engine x policy (1-write and 8-write shapes)");

  json.note("tasks", std::to_string(n));
  json.note("fan_writes", std::to_string(kFan));

  support::ThreadPool pool(5);  // max workers (4) + coor master

  Sweep sweep{&json, &opt, &pool, n, reps, /*with_coor=*/true};
  run_section(sweep, "protocol", stf::FlowImage::compile(make_chains(n)));
  sweep.with_coor = false;  // coor pays per-access master cost: rio only
  run_section(sweep, "fan", stf::FlowImage::compile(make_fans(n)));

  std::cout
      << "Expected shape: block-policy rio within noise of spin-yield "
         "(doorbell batching elides per-word notifies on stall-free "
         "workloads: issued_per_task ~ 0, also in the "
      << kFan
      << "-write \"fan\" section); coor-ring at or below coor-locked "
         "(wait-free push/pop, wakeups only when a consumer is parked).\n";
  bench::finish(json);
  return 0;
}
