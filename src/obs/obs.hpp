// rio::obs — the unified telemetry hub (docs/observability.md).
//
// One Hub per measured run (or swept series): it owns the per-worker
// counter lines, the optional flight-recorder rings, and the committed
// span-phase totals. Engines receive a `Hub*` through their Launch; a
// null hub means telemetry off, and every per-event call below degrades
// to a predicted branch on a null pointer — no locks, no allocation.
//
// Worker threads never talk to the Hub directly on the hot path. Each
// worker carries a plain `WorkerObs` lens bound once before the run: the
// lens holds raw pointers to that worker's counter line and ring plus
// local (unshared) phase accumulators, and commit() folds the locals back
// into the hub after the worker loop ends. The watchdog thread, which has
// no lens, uses the hub's global counter line and the mutex-protected
// out-of-band instant list instead of the single-writer rings.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "obs/recorder.hpp"
#include "support/stats.hpp"

namespace rio::obs {

enum class ClockUnit : std::uint8_t { kNanoseconds, kTicks };

[[nodiscard]] constexpr const char* to_string(ClockUnit u) noexcept {
  return u == ClockUnit::kNanoseconds ? "ns" : "ticks";
}

struct HubOptions {
  bool recorder = false;  ///< flight recorder on (opt-in; counters are free)
  std::size_t ring_capacity = std::size_t{1} << 16;  ///< events per worker ring
  std::uint64_t sample = 1;  ///< record every sample-th span (1 = all)
};

class Hub {
 public:
  explicit Hub(const HubOptions& opts = {}) : opts_(opts) {
    if (opts_.recorder)
      recorder_ = std::make_unique<Recorder>(opts_.ring_capacity, opts_.sample);
  }

  /// Grows (never shrinks, never resets) to at least `n` worker slots.
  /// Call between runs only; hybrid calls once per phase and the totals
  /// accumulate across phases.
  void ensure_workers(std::size_t n) {
    counters_.ensure(n);
    if (recorder_) recorder_->ensure(n);
    if (phase_totals_.size() < n) phase_totals_.resize(n);
  }

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return phase_totals_.size();
  }

  [[nodiscard]] WorkerCounters* worker_counters(std::size_t w) noexcept {
    return w < counters_.size() ? &counters_.worker(w) : nullptr;
  }
  [[nodiscard]] WorkerCounters& global_counters() noexcept {
    return counters_.global();
  }
  [[nodiscard]] CounterSnapshot counter_snapshot() const {
    return counters_.snapshot();
  }

  [[nodiscard]] bool recorder_enabled() const noexcept {
    return recorder_ != nullptr;
  }
  [[nodiscard]] EventRing* ring(std::size_t w) noexcept {
    return recorder_ ? recorder_->ring(w) : nullptr;
  }
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return recorder_ ? recorder_->ring_capacity() : 0;
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorder_ ? recorder_->recorded() : 0;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorder_ ? recorder_->dropped() : 0;
  }
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return recorder_ ? recorder_->pushed() : 0;
  }
  [[nodiscard]] std::uint64_t sample_stride() const noexcept {
    return recorder_ ? recorder_->stride() : 0;
  }

  /// Accumulates (+=) one worker's span-phase totals. Workers reach this
  /// through WorkerObs::commit after their loop; hybrid's phases stack up.
  void commit_phases(std::size_t w,
                     const std::uint64_t (&phases)[kNumSpanPhases]) {
    ensure_workers(w + 1);
    for (std::size_t i = 0; i < kNumSpanPhases; ++i)
      phase_totals_[w][i] += phases[i];
  }

  [[nodiscard]] const std::array<std::uint64_t, kNumSpanPhases>& phase_totals(
      std::size_t w) const noexcept {
    return phase_totals_[w];
  }
  [[nodiscard]] std::uint64_t phase_total(Phase p) const noexcept {
    std::uint64_t n = 0;
    for (const auto& w : phase_totals_) n += w[static_cast<std::size_t>(p)];
    return n;
  }

  /// Thread-safe out-of-band instant for threads without a lens (the
  /// watchdog must not touch the single-writer rings). Dropped when the
  /// recorder is off, like every other event.
  void instant(const Event& ev) {
    if (!recorder_) return;
    const std::lock_guard<std::mutex> lock(oob_mu_);
    oob_.push_back(ev);
  }

  /// All retained events (rings + out-of-band), sorted by begin time.
  /// Call only after the workers joined.
  [[nodiscard]] std::vector<Event> drain_events() const {
    std::vector<Event> out;
    if (recorder_)
      for (std::size_t w = 0; w < recorder_->size(); ++w)
        recorder_->ring(w)->drain(out);
    {
      const std::lock_guard<std::mutex> lock(oob_mu_);
      out.insert(out.end(), oob_.begin(), oob_.end());
    }
    std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.worker < b.worker;
    });
    return out;
  }

  void set_clock_unit(ClockUnit u) noexcept { clock_ = u; }
  [[nodiscard]] ClockUnit clock_unit() const noexcept { return clock_; }

  void reset() {
    counters_.reset();
    if (recorder_) recorder_->clear();
    for (auto& w : phase_totals_) w.fill(0);
    const std::lock_guard<std::mutex> lock(oob_mu_);
    oob_.clear();
  }

 private:
  HubOptions opts_;
  CounterRegistry counters_;
  std::unique_ptr<Recorder> recorder_;
  std::vector<std::array<std::uint64_t, kNumSpanPhases>> phase_totals_;
  mutable std::mutex oob_mu_;
  std::vector<Event> oob_;
  ClockUnit clock_ = ClockUnit::kNanoseconds;
};

/// Engine-side per-worker lens. Lives in the worker's context (its own
/// cache line there) or on its stack; every method is null-safe so the
/// telemetry-off path costs a well-predicted branch and never allocates.
/// Phase accumulators are local plain integers even when a hub is bound —
/// the shared state is only touched in commit().
struct WorkerObs {
  std::uint64_t phase_ns[kNumSpanPhases] = {};
  std::uint64_t spin_iters = 0;  ///< batched; flushed to kSpinIters in commit
  WorkerCounters* counters = nullptr;
  EventRing* ring = nullptr;
  std::uint32_t worker = 0;

  void bind(Hub* hub, std::uint32_t w) noexcept {
    worker = w;
    counters = hub != nullptr ? hub->worker_counters(w) : nullptr;
    ring = hub != nullptr ? hub->ring(w) : nullptr;
  }

  [[nodiscard]] bool recording() const noexcept { return ring != nullptr; }

  /// `cause` is the wait-cause word (phase.hpp) carried by kAcquireWait
  /// spans; the default keeps every existing call site unattributed. The
  /// word only materializes in the ring push, so the recorder-off path
  /// costs nothing extra.
  void span(Phase p, std::uint64_t task, std::uint64_t b, std::uint64_t e,
            std::uint64_t cause = kNoCause) {
    phase_ns[static_cast<std::size_t>(p)] += e - b;
    if (ring != nullptr) ring->push(Event{b, e, task, worker, p, cause});
  }

  void instant(Phase p, std::uint64_t task, std::uint64_t ts) {
    if (ring != nullptr) ring->push(Event{ts, ts, task, worker, p});
  }

  void count(Counter c, std::uint64_t n = 1) {
    if (counters != nullptr) counters->add(c, n);
  }

  /// Flushes the batched spin iterations and the phase totals to `hub`
  /// (null-safe). Call once, after the worker loop.
  void commit(Hub* hub) {
    if (counters != nullptr && spin_iters > 0) {
      counters->add(Counter::kSpinIters, spin_iters);
      spin_iters = 0;
    }
    if (hub != nullptr) hub->commit_phases(worker, phase_ns);
  }

  /// Derives the legacy TimeBuckets from the phase totals: task time is
  /// the body phase, idle is acquire-wait + steal, and runtime overhead is
  /// the wall remainder (release, rollback, mgmt and untimed loop glue).
  [[nodiscard]] support::TimeBuckets buckets(std::uint64_t wall) const noexcept {
    support::TimeBuckets b;
    b.task_ns = phase_ns[static_cast<std::size_t>(Phase::kBody)];
    b.idle_ns = phase_ns[static_cast<std::size_t>(Phase::kAcquireWait)] +
                phase_ns[static_cast<std::size_t>(Phase::kSteal)];
    b.runtime_ns =
        wall > b.task_ns + b.idle_ns ? wall - b.task_ns - b.idle_ns : 0;
    return b;
  }
};

}  // namespace rio::obs
