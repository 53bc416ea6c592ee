#include "engine/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "obs/obs.hpp"
#include "rio/mapping.hpp"
#include "stf/failure.hpp"
#include "stf/flow_image.hpp"

namespace rio::engine {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Rewrites a partial mapping after worker `dead` left a pool of
/// `old_workers`: statically-owned tasks of the dead worker round-robin
/// over the survivors, owners above the dead id shift down, dynamic tasks
/// stay dynamic. The exact partial-mapping analogue of rt::mapping::evict.
rt::PartialMapping evict_partial(rt::PartialMapping old, stf::WorkerId dead,
                                 std::uint32_t old_workers) {
  const std::uint32_t survivors = old_workers - 1;
  return [old = std::move(old), dead,
          survivors](stf::TaskId t) -> std::optional<stf::WorkerId> {
    const std::optional<stf::WorkerId> o = old(t);
    if (!o.has_value()) return std::nullopt;
    if (*o == dead) return static_cast<stf::WorkerId>(t % survivors);
    if (*o > dead) return static_cast<stf::WorkerId>(*o - 1);
    return o;
  };
}

}  // namespace

Outcome run_supervised(const Backend& backend, const stf::FlowImage& image,
                       Launch launch, const SupervisorOptions& opts) {
  const Capabilities& caps = backend.caps();
  if (!caps.supports_recovery) return backend.run(image, launch);

  // The supervisor owns a board unless the caller brought one (e.g. to
  // inspect the frontier afterwards). Either way the board is wired into
  // every attempt so the frontier is always capturable at the next loss.
  stf::CompletionBoard own_board;
  if (launch.checkpoint == nullptr) {
    own_board.reset(image.first_id(), image.size(), opts.checkpoint_every);
    launch.checkpoint = &own_board;
  }
  stf::CompletionBoard* board = launch.checkpoint;

  // `frontier` must outlive the attempt that consumes launch.resume, and is
  // recaptured (not reallocated fresh) at every loss.
  stf::Frontier frontier;
  std::uint64_t evictions = 0;
  std::uint64_t replayed = 0;
  std::uint64_t first_loss_ns = 0;
  std::vector<stf::WorkerId> evicted;  // original worker numbering

  // Maps a CURRENT worker id back to the original numbering for reporting:
  // original_id[w] is worker w's id before any eviction.
  std::vector<stf::WorkerId> original_id(launch.workers);
  for (std::uint32_t w = 0; w < launch.workers; ++w) original_id[w] = w;

  for (;;) {
    try {
      Outcome out = backend.run(image, launch);
      out.evictions = evictions;
      out.tasks_replayed += replayed;
      out.evicted_workers = std::move(evicted);
      if (evictions > 0) out.recovery_wall_ns = now_ns() - first_loss_ns;
      return out;
    } catch (const stf::WorkerLost& loss) {
      if (first_loss_ns == 0) first_loss_ns = now_ns();
      if (launch.workers <= 1) throw;  // nobody left to take over

      // Distinct dead worker ids, descending: evicting the highest id
      // first keeps the remaining dead ids valid in the shrinking pool.
      std::vector<stf::WorkerId> dead_ids;
      for (const stf::DeathRecord& d : loss.deaths())
        dead_ids.push_back(d.worker);
      std::sort(dead_ids.begin(), dead_ids.end(),
                std::greater<stf::WorkerId>());
      dead_ids.erase(std::unique(dead_ids.begin(), dead_ids.end()),
                     dead_ids.end());
      if (dead_ids.empty()) throw;  // defensive: loss without a record
      if (dead_ids.size() >= launch.workers) throw;  // everyone died
      if (opts.max_evictions != 0 &&
          evictions + dead_ids.size() > opts.max_evictions)
        throw;

      // Roll the dead workers' dirty write spans back to the pre-task
      // bytes so re-execution starts from clean inputs.
      for (const stf::DeathRecord& d : loss.deaths())
        d.dirty.restore(image.registry());

      for (const stf::WorkerId dead : dead_ids) {
        RIO_ASSERT(dead < launch.workers);
        evicted.push_back(original_id[dead]);
        original_id.erase(original_id.begin() + dead);
        if (launch.mapping.valid())
          launch.mapping =
              rt::mapping::evict(launch.mapping, dead, launch.workers);
        if (launch.partial)
          launch.partial =
              evict_partial(std::move(launch.partial), dead, launch.workers);
        launch.workers -= 1;
        ++evictions;
      }
      if (launch.obs != nullptr)
        launch.obs->global_counters().add(obs::Counter::kEvictions,
                                          dead_ids.size());

      // Resume past everything the board has seen complete. Tasks done
      // before the loss replay as protocol no-ops on the next attempt.
      frontier = board->capture();
      replayed += frontier.completed;
      launch.resume = &frontier;
    }
  }
}

}  // namespace rio::engine
