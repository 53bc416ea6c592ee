// micro_unroll — per-task replay overhead of the decentralized unroll.
//
// The paper's cost model prices a NON-mapped task at one or two private
// writes per access; everything else a replay pays on top of that is
// representation overhead. This bench isolates it by replaying the same
// compiled flow two ways on the real rio engine:
//
//   * image          — Runtime::run(FlowImage, Mapping): walks the compiled
//                      SoA image (stf/flow_image.hpp), 8-byte spans + flat
//                      access array;
//   * pruned-image   — Runtime::run_pruned(FlowImage, Mapping): each worker
//                      only visits its own tasks; the plan comes from the
//                      runtime's cache, so repeated runs pay zero
//                      recompilation.
//
// The workload is stall-free by construction (see make_chains), so wall
// time is pure unroll + protocol publication cost, swept across worker
// counts and wait policies.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rio/mapping.hpp"
#include "rio/runtime.hpp"
#include "support/clock.hpp"
#include "support/thread_pool.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"

using namespace rio;

namespace {

// Task i writes chain i mod kChains. kChains is divisible by every tested
// worker count, so under a round-robin mapping each chain lives entirely on
// one worker: no get_* ever has to wait on another worker and the measured
// time contains no dependency stalls.
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
  bench::JsonReporter json("unroll", opt);

  const std::size_t n = opt.quick ? (1u << 13) : (1u << 16);
  const int reps = opt.quick ? 3 : 7;
  const std::vector<std::uint32_t> workers = {1, 2, 4};
  const std::vector<support::WaitPolicy> policies = {
      support::WaitPolicy::kSpin, support::WaitPolicy::kSpinYield,
      support::WaitPolicy::kBlock};

  bench::header("micro_unroll",
                std::to_string(n) +
                    " empty single-write tasks, stall-free chains; replay "
                    "overhead per task: image vs pruned image");

  const stf::TaskFlow flow = make_chains(n);

  support::Stopwatch compile_sw;
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const double compile_ms =
      static_cast<double>(compile_sw.elapsed_ns()) * 1e-6;
  json.note("tasks", std::to_string(n));
  json.note("image_compile_ms", std::to_string(compile_ms));

  support::ThreadPool pool(
      *std::max_element(workers.begin(), workers.end()));

  support::Table table(
      {"workers", "policy", "engine", "wall_ms", "ns_per_task"});
  std::uint64_t total_plan_compiles = 0;
  for (const std::uint32_t w : workers) {
    const rt::Mapping mapping = rt::mapping::round_robin(w);
    for (const support::WaitPolicy policy : policies) {
      const rt::Config cfg{.num_workers = w,
                           .wait_policy = policy,
                           .collect_stats = false};
      rt::Runtime eng(cfg);
      eng.attach_pool(&pool);
      rt::Runtime pruned(cfg);
      pruned.attach_pool(&pool);

      const double image_ms =
          min_wall_ms(reps, [&] { eng.run(image, mapping); });
      // First call compiles the plan into the cache; every rep after (and
      // every future run with this image+mapping) replays it for free.
      const double pruned_ms =
          min_wall_ms(reps, [&] { pruned.run_pruned(image, mapping); });
      total_plan_compiles += pruned.plan_compiles();

      const auto add = [&](const char* engine, double ms) {
        table.row()
            .integer(w)
            .str(support::to_string(policy))
            .str(engine)
            .num(ms, 3)
            .num(ms * 1e6 / static_cast<double>(n), 1);
      };
      add("image", image_ms);
      add("pruned-image", pruned_ms);
    }
  }
  bench::emit(table, opt, json, "unroll");
  json.note("plan_compiles", std::to_string(total_plan_compiles));

  std::cout << "image compile: " << compile_ms << " ms for "
            << n << " tasks; pruned plans compiled " << total_plan_compiles
            << "x (one per worker-count/policy runtime, cached across "
            << reps << " reps each)\n"
            << "Expected shape: pruned-image below image per task (each "
               "worker visits only its own tasks instead of declaring the "
               "rest).\n";
  bench::finish(json);
  return 0;
}
