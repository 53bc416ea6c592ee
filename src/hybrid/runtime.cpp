#include "hybrid/runtime.hpp"

#include <memory>
#include <utility>

#include "support/assert.hpp"

namespace rio::hybrid {

std::vector<Phase> partition(std::size_t num_tasks,
                             const rt::PartialMapping& pm,
                             std::uint32_t num_workers) {
  RIO_ASSERT(pm && num_workers > 0);
  const std::size_t n = num_tasks;

  // One shared owner table: static phases index into it by global id.
  auto owners = std::make_shared<std::vector<stf::WorkerId>>(
      n, stf::kInvalidWorker);
  rt::Mapping table("hybrid/partial-owners", [owners](stf::TaskId t) {
    RIO_DEBUG_ASSERT(t < owners->size() &&
                     (*owners)[t] != stf::kInvalidWorker);
    return (*owners)[t];
  });

  std::vector<Phase> phases;
  std::size_t i = 0;
  while (i < n) {
    const auto owner = pm(i);
    if (owner.has_value()) {
      RIO_ASSERT_MSG(*owner < num_workers, "partial mapping out of range");
      (*owners)[i] = *owner;
    }
    const bool is_static = owner.has_value();
    std::size_t j = i + 1;
    while (j < n) {
      const auto next = pm(j);
      if (next.has_value() != is_static) break;
      if (next.has_value()) {
        RIO_ASSERT_MSG(*next < num_workers, "partial mapping out of range");
        (*owners)[j] = *next;
      }
      ++j;
    }
    Phase ph;
    ph.kind = is_static ? Phase::Kind::kStatic : Phase::Kind::kDynamic;
    ph.first = i;
    ph.count = j - i;
    if (is_static) ph.mapping = table;
    phases.push_back(std::move(ph));
    i = j;
  }
  return phases;
}

std::vector<Phase> partition(const stf::TaskFlow& flow,
                             const rt::PartialMapping& pm,
                             std::uint32_t num_workers) {
  return partition(flow.num_tasks(), pm, num_workers);
}

namespace {

/// The one launch both phase engines run under. Hybrid records no trace
/// and no sync events. It also runs unpinned: pinning would cost one
/// sched_setaffinity per worker per phase, so honouring pin_workers is a
/// separate change that must be measured first.
engine::Launch phase_launch(engine::Launch launch) {
  launch.collect_trace = false;
  launch.collect_sync = false;
  launch.pin_workers = false;
  return launch;
}

}  // namespace

Runtime::Runtime(engine::Launch launch)
    : phase_(phase_launch(std::move(launch))), rio_(phase_), coor_(phase_) {
  RIO_ASSERT_MSG(phase_.workers > 0, "need at least one worker");
}

void Runtime::configure(const engine::Launch& launch) {
  phase_ = phase_launch(launch);
  RIO_ASSERT_MSG(phase_.workers > 0, "need at least one worker");
  rio_.configure(phase_);
  coor_.configure(phase_);
}

support::RunStats Runtime::run(const stf::TaskFlow& flow,
                               const std::vector<Phase>& phases) {
  // One compilation serves every phase: each phase executes an ImageRange
  // slice, so neither engine ever walks the AoS Task array while unrolling.
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  return run(image, phases);
}

support::RunStats Runtime::run(const stf::FlowImage& image,
                               const std::vector<Phase>& phases) {
  // Validate the tiling before touching anything.
  std::size_t expect = 0;
  for (const Phase& ph : phases) {
    RIO_ASSERT_MSG(ph.first == expect, "phases must tile the flow in order");
    expect += ph.count;
    if (ph.kind == Phase::Kind::kStatic)
      RIO_ASSERT_MSG(ph.mapping.valid(), "static phase without a mapping");
  }
  RIO_ASSERT_MSG(expect == image.size(), "phases must cover the flow");

  const std::uint32_t p = phase_.workers;
  support::RunStats total;
  // Worker slots 0..p-1 aggregate across phases; slot p is the dynamic
  // phases' master (idle during static phases by construction).
  total.workers.resize(p + 1);

  // One persistent pool for every phase: p workers + 1 master-capable
  // thread (idle during static phases). Amortizes thread startup across
  // the potentially many fine-grained phases.
  support::ThreadPool* pool = pool_;
  if (pool == nullptr) {
    if (!own_pool_ || own_pool_->size() < p + 1)
      own_pool_ = std::make_unique<support::ThreadPool>(p + 1);
    pool = own_pool_.get();
  }
  rio_.attach_pool(pool);
  coor_.attach_pool(pool);

  // Cross-phase failure propagation: a failing phase (retry exhaustion,
  // stall, any thrown body) throws out of its engine's run() and out of
  // this loop — later phases are cancelled by never starting. The phase
  // barrier guarantees none of their task bodies has run.
  last_phases_ = phases.size();
  completed_phases_ = 0;
  for (const Phase& ph : phases) {
    if (ph.count == 0) {
      ++completed_phases_;
      continue;
    }
    const stf::ImageRange range(image, ph.first, ph.count);
    support::RunStats phase_stats;
    if (ph.kind == Phase::Kind::kStatic) {
      // Phase barrier semantics: everything before `first` completed, so
      // the in-order protocol may start from fresh per-phase state.
      phase_stats = rio_.run(range, ph.mapping);
    } else {
      phase_stats = coor_.run(range);
    }
    ++completed_phases_;
    total.wall_ns += phase_stats.wall_ns;
    for (std::size_t w = 0; w < phase_stats.workers.size(); ++w) {
      auto& dst = total.workers[w < p ? w : p];
      const auto& src = phase_stats.workers[w];
      dst.buckets += src.buckets;
      dst.tasks_executed += src.tasks_executed;
      dst.tasks_skipped += src.tasks_skipped;
      dst.waits += src.waits;
    }
  }
  return total;
}

support::RunStats Runtime::run(const stf::TaskFlow& flow,
                               const rt::PartialMapping& pm) {
  return run(flow, partition(flow, pm, phase_.workers));
}

support::RunStats Runtime::run(const stf::FlowImage& image,
                               const rt::PartialMapping& pm) {
  return run(image, partition(image.size(), pm, phase_.workers));
}

}  // namespace rio::hybrid
