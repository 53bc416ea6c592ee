// abl_wait_policy — the wait-policy ablation advertised in support/wait.hpp.
//
// Algorithm 2's two wait loops can spin, spin-then-yield, or park on a
// futex (std::atomic::wait). The right choice depends on whether stalls
// happen at all and on how oversubscribed the machine is, so the ablation
// runs the real rio engine over two extreme workloads:
//
//   * no-stall  — private per-worker chains (micro_unroll's workload): no
//     get_* ever waits, so the columns isolate each policy's PUBLICATION
//     cost (kBlock pays a notify per protocol write even with no waiter);
//   * ping-pong — one read-write chain alternating between two workers:
//     every task stalls on the other worker, so the columns show wake-up
//     latency and, on oversubscribed hosts, kSpin's livelock-by-timeslice
//     pathology (this is why the engines default to kSpinYield).
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

constexpr std::size_t kChains = 64;  // divisible by every tested p

stf::TaskFlow make_private_chains(std::size_t n) {
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

stf::TaskFlow make_pingpong(std::size_t n) {
  stf::TaskFlow flow;
  auto x = flow.create_data<std::uint64_t>("x");
  for (std::size_t i = 0; i < n; ++i)
    flow.add_virtual(0, {stf::readwrite(x)});
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
  bench::JsonReporter json("wait_policy", opt);

  const std::size_t n_free = opt.quick ? (1u << 12) : (1u << 15);
  const std::size_t n_ping = opt.quick ? 256 : 1024;
  const int reps = opt.quick ? 3 : 5;
  const std::vector<support::WaitPolicy> policies = {
      support::WaitPolicy::kSpin, support::WaitPolicy::kSpinYield,
      support::WaitPolicy::kBlock};

  bench::header("Ablation: wait policy",
                "publication cost (no-stall chains) and wake-up latency "
                "(cross-worker ping-pong) of spin / spin-yield / block");

  support::ThreadPool pool(2);
  const stf::TaskFlow free_flow = make_private_chains(n_free);
  const stf::FlowImage free_image = stf::FlowImage::compile(free_flow);
  const stf::TaskFlow ping_flow = make_pingpong(n_ping);
  const stf::FlowImage ping_image = stf::FlowImage::compile(ping_flow);
  const rt::Mapping two = rt::mapping::round_robin(2);

  support::Table no_stall(
      {"policy", "wall_ms", "ns_per_task"});
  support::Table pingpong(
      {"policy", "wall_ms", "us_per_handoff", "stalls"});
  for (const support::WaitPolicy policy : policies) {
    const engine::Launch cfg{.workers = 2,
                             .wait_policy = policy,
                             .collect_stats = false};
    rt::Runtime eng(cfg);
    eng.attach_pool(&pool);
    const double free_ms =
        min_wall_ms(reps, [&] { eng.run(free_image, two); });
    no_stall.row()
        .str(support::to_string(policy))
        .num(free_ms, 3)
        .num(free_ms * 1e6 / static_cast<double>(n_free), 1);

    engine::Launch scfg = cfg;
    scfg.collect_stats = true;  // count the stalls to prove the shape
    rt::Runtime stalling(scfg);
    stalling.attach_pool(&pool);
    std::uint64_t stalls = 0;
    const double ping_ms = min_wall_ms(reps, [&] {
      const auto stats = stalling.run(ping_image, two);
      stalls = 0;
      for (const auto& wst : stats.workers) stalls += wst.waits;
    });
    pingpong.row()
        .str(support::to_string(policy))
        .num(ping_ms, 3)
        .num(ping_ms * 1e3 / static_cast<double>(n_ping), 2)
        .integer(static_cast<long long>(stalls));
  }

  std::cout << "-- no-stall private chains (" << n_free << " tasks) --\n";
  bench::emit(no_stall, opt, json, "no_stall");
  std::cout << "-- cross-worker ping-pong (" << n_ping << " tasks) --\n";
  bench::emit(pingpong, opt, json, "pingpong");

  std::cout << "Expected shape: without stalls the policies tie (kBlock pays\n"
               "an uncontended notify per write); under ping-pong, kSpin\n"
               "degrades badly when workers outnumber cores while kBlock\n"
               "parks cleanly — the reason kSpinYield is the default.\n";
  bench::finish(json);
  return 0;
}
