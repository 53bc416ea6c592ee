#include "support/assert.hpp"
#include "sim/simulate.hpp"

namespace rio::sim {

Report simulate_hybrid(const stf::FlowImage& image,
                       const std::vector<hybrid::Phase>& phases,
                       const DecentralizedParams& dparams,
                       const CentralizedParams& cparams,
                       const TimeScale& scale) {
  const std::uint32_t p = dparams.workers;
  RIO_ASSERT_MSG(cparams.workers == p,
                 "hybrid phases must share one worker pool");

  // Validate the tiling, mirroring hybrid::Runtime::run.
  std::size_t expect = 0;
  for (const auto& ph : phases) {
    RIO_ASSERT_MSG(ph.first == expect, "phases must tile the flow in order");
    expect += ph.count;
  }
  RIO_ASSERT_MSG(expect == image.size(), "phases must cover the flow");

  Report total;
  total.total_threads = p + 1;  // p workers + the dynamic phases' master
  total.stats.workers.resize(p + 1);

  for (const auto& ph : phases) {
    if (ph.count == 0) continue;
    const stf::ImageRange range(image, ph.first, ph.count);
    // The phase starts where the earlier ones ended: the barrier.
    TimeScale at = scale;
    at.start_tick = scale.start_tick + total.makespan;
    Report rep;
    if (ph.kind == hybrid::Phase::Kind::kStatic) {
      RIO_ASSERT(ph.mapping.valid());
      rep = simulate_decentralized(range, ph.mapping, dparams, at);
      // The master-capable thread idles through static phases.
      total.stats.workers[p].buckets.idle_ns += rep.makespan;
    } else {
      rep = simulate_centralized(range, cparams, at);
    }
    total.makespan += rep.makespan;
    total.injected_throws += rep.injected_throws;
    total.injected_stalls += rep.injected_stalls;
    total.retried_tasks += rep.retried_tasks;
    total.failed_tasks += rep.failed_tasks;
    total.evictions += rep.evictions;
    total.tasks_replayed += rep.tasks_replayed;
    for (std::size_t w = 0; w < rep.stats.workers.size(); ++w) {
      auto& dst = total.stats.workers[w < p ? w : p];
      const auto& src = rep.stats.workers[w];
      dst.buckets += src.buckets;
      dst.tasks_executed += src.tasks_executed;
      dst.tasks_timed += src.tasks_timed;
      dst.tasks_skipped += src.tasks_skipped;
      dst.waits += src.waits;
    }
  }
  total.stats.wall_ns = total.makespan;
  return total;
}

}  // namespace rio::sim
