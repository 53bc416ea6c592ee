#include "engine/executor.hpp"

namespace rio::engine {
namespace {

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

RioExecutor::RioExecutor() : runtime_(Launch{}) {}

Outcome RioExecutor::run(const stf::FlowImage& image, const Launch& launch,
                         Walk walk) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    rt::Runtime one_shot(launch);
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
  runtime_.configure(launch);
  runtime_.attach_pool(pool_.get());
  return run_on(runtime_, image, launch.mapping, walk);
}

}  // namespace rio::engine
