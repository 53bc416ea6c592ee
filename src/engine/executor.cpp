#include "engine/executor.hpp"

namespace rio::engine {
namespace {

rt::Config make_rio_config(const Launch& l) {
  return rt::Config{.num_workers = l.workers,
                    .wait_policy = l.wait_policy,
                    .collect_stats = l.collect_stats,
                    .collect_trace = l.collect_trace,
                    .collect_sync = l.collect_sync,
                    .enable_guard = l.enable_guard,
                    .pin_workers = l.pin_workers,
                    .retry = l.retry,
                    .fault = l.fault,
                    .watchdog_ns = l.watchdog_ns,
                    .resume = l.resume,
                    .checkpoint = l.checkpoint,
                    .obs = l.obs};
}

Outcome run_on(rt::Runtime& eng, const stf::FlowImage& image,
               const rt::Mapping& mapping, RioExecutor::Walk walk) {
  const std::uint64_t compiles_before = eng.plan_compiles();
  Outcome out;
  out.stats = walk == RioExecutor::Walk::kPruned
                  ? eng.run_pruned(image, mapping)
                  : eng.run(image, mapping);
  out.makespan = out.stats.wall_ns;
  out.trace = eng.trace();
  out.sync = eng.sync_trace();
  out.plan_compiles = eng.plan_compiles() - compiles_before;
  return out;
}

}  // namespace

RioExecutor::RioExecutor() : runtime_(rt::Config{}) {}

Outcome RioExecutor::run(const stf::FlowImage& image, const Launch& launch,
                         Walk walk) {
  const rt::Config cfg = make_rio_config(launch);
  if (busy_.exchange(true, std::memory_order_acquire)) {
    rt::Runtime one_shot(cfg);
    return run_on(one_shot, image, launch.mapping, walk);
  }
  struct Unlock {
    std::atomic<bool>& busy;
    ~Unlock() { busy.store(false, std::memory_order_release); }
  } unlock{busy_};

  if (!pool_ || pool_->size() < launch.workers ||
      pool_pinned_ != launch.pin_workers) {
    pool_.reset();  // join the old threads before spawning the new ones
    pool_ = std::make_unique<support::ThreadPool>(launch.workers);
    pool_pinned_ = launch.pin_workers;
  }
  runtime_.configure(cfg);
  runtime_.attach_pool(pool_.get());
  return run_on(runtime_, image, launch.mapping, walk);
}

}  // namespace rio::engine
