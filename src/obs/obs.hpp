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
//
// The lens also owns the worker's SpanSampler, which decides before any
// clock read whether a task's body and release are timed. Counts and
// stalls stay exact; body and release totals are weighted estimates
// unless every span is timed (a recorder at sample 1).
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
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace rio::obs {

enum class ClockUnit : std::uint8_t { kNanoseconds, kTicks };

[[nodiscard]] constexpr const char* to_string(ClockUnit u) noexcept {
  return u == ClockUnit::kNanoseconds ? "ns" : "ticks";
}

struct HubOptions {
  bool recorder = false;  ///< flight recorder on (opt-in; counters are free)
  std::size_t ring_capacity = std::size_t{1} << 16;  ///< events per worker ring
  std::uint64_t sample = 1;  ///< time and record every sample-th executed
                             ///< task's body and release (1 = all); stalls
                             ///< and management spans are always recorded
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
  [[nodiscard]] const EventRing* ring(std::size_t w) const noexcept {
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

/// Mean gap between timed tasks under the default sampler: gaps are drawn
/// uniformly from [1, kSampleGapSpan], so about one task in 64 is timed.
inline constexpr std::uint64_t kSampleGapSpan = 128;
/// A timed body at least this long (about 100 clock reads) keeps the next
/// task timed, so flows of coarse tasks stay fully timed.
inline constexpr std::uint64_t kLongBodyNs = 2000;

/// Per-worker span sampler: decides, before any clock read, whether the
/// current executed task is timed. Every task seen is represented by
/// exactly one timed task — weight() counts the timed task itself plus the
/// untimed ones since the previous timed task — and the untimed tail after
/// the last timed task is left in tail(), for the caller to hold at that
/// task's durations. The weights plus the tail therefore sum to the tasks
/// seen, and weighted durations estimate the exact totals.
class SpanSampler {
 public:
  /// `stride` 0: jittered gaps drawn from `seed` (mean about 1 in 64, so
  /// periodic flows cannot alias), and a long body keeps the next task
  /// timed. `stride` N >= 1: exactly every N-th task (1 = all). The first
  /// task is always timed.
  explicit SpanSampler(std::uint64_t stride = 0,
                       std::uint64_t seed = 0) noexcept
      : rng_(seed), stride_(stride) {}

  /// Call once per executed task, before any clock read; true means time
  /// this task.
  [[nodiscard]] bool next() noexcept {
    ++pending_;
    if (--countdown_ != 0) return false;
    untimed_ += pending_ - 1;
    weight_ = pending_;
    pending_ = 0;
    ++timed_;
    countdown_ =
        stride_ != 0 ? stride_ : 1 + (rng_() & (kSampleGapSpan - 1));
    return true;
  }

  /// Feeds back a timed body's duration: a long one keeps the next task
  /// timed (default mode only; a fixed stride is what the caller asked).
  void note_body(std::uint64_t ns) noexcept {
    if (stride_ == 0 && ns >= kLongBodyNs) countdown_ = 1;
  }

  /// Tasks the current timed task stands for.
  [[nodiscard]] std::uint64_t weight() const noexcept { return weight_; }
  /// Untimed tasks after the last timed one.
  [[nodiscard]] std::uint64_t tail() const noexcept { return pending_; }
  [[nodiscard]] std::uint64_t timed() const noexcept { return timed_; }
  [[nodiscard]] std::uint64_t untimed() const noexcept {
    return untimed_ + pending_;
  }

 private:
  support::Xoshiro256 rng_;
  std::uint64_t stride_;
  std::uint64_t countdown_ = 1;
  std::uint64_t pending_ = 0;
  std::uint64_t weight_ = 0;
  std::uint64_t timed_ = 0;
  std::uint64_t untimed_ = 0;
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
  SpanSampler sampler;
  std::uint64_t held_body_ns = 0;     ///< last timed body, held over the
  std::uint64_t held_release_ns = 0;  ///< untimed tail (and its release)

  /// Binds worker `w`'s slots of `hub` (null = telemetry off) and picks
  /// the sampler: a bound recorder's sample stride (1 = every span), else
  /// the jittered default seeded by `w`, so a worker times the same
  /// positions each run.
  void bind(Hub* hub, std::uint32_t w) noexcept {
    worker = w;
    counters = hub != nullptr ? hub->worker_counters(w) : nullptr;
    ring = hub != nullptr ? hub->ring(w) : nullptr;
    sampler = SpanSampler(ring != nullptr ? hub->sample_stride() : 0, w);
  }

  /// Body span of a timed task, weighted by the tasks it stands for.
  void body(std::uint64_t task, std::uint64_t b, std::uint64_t e) {
    held_body_ns = e - b;
    weighted(Phase::kBody, task, b, e);
    sampler.note_body(held_body_ns);
  }

  /// Release span of a timed task, weighted like its body.
  void release(std::uint64_t task, std::uint64_t b, std::uint64_t e) {
    held_release_ns = e - b;
    weighted(Phase::kRelease, task, b, e);
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

  /// Holds the untimed tail at the last timed task's durations, then
  /// flushes the batched spin iterations, the sampled-out span count and
  /// the phase totals to `hub` (null-safe). Call once, after the worker
  /// loop and before buckets().
  void commit(Hub* hub) {
    const std::uint64_t tail = sampler.tail();
    phase_ns[static_cast<std::size_t>(Phase::kBody)] += tail * held_body_ns;
    phase_ns[static_cast<std::size_t>(Phase::kRelease)] +=
        tail * held_release_ns;
    // An untimed task would have pushed a body and a release span.
    if (ring != nullptr) ring->skip(2 * sampler.untimed());
    if (counters != nullptr && spin_iters > 0) {
      counters->add(Counter::kSpinIters, spin_iters);
      spin_iters = 0;
    }
    if (hub != nullptr) hub->commit_phases(worker, phase_ns);
  }

  /// Derives the legacy TimeBuckets from the committed phase totals: task
  /// time is the body phase, idle is acquire-wait + steal, and runtime
  /// overhead is the wall remainder (release, rollback, mgmt and untimed
  /// loop glue).
  [[nodiscard]] support::TimeBuckets buckets(std::uint64_t wall) const noexcept {
    support::TimeBuckets b;
    b.task_ns = phase_ns[static_cast<std::size_t>(Phase::kBody)];
    b.idle_ns = phase_ns[static_cast<std::size_t>(Phase::kAcquireWait)] +
                phase_ns[static_cast<std::size_t>(Phase::kSteal)];
    b.runtime_ns =
        wall > b.task_ns + b.idle_ns ? wall - b.task_ns - b.idle_ns : 0;
    return b;
  }

 private:
  void weighted(Phase p, std::uint64_t task, std::uint64_t b,
                std::uint64_t e) {
    phase_ns[static_cast<std::size_t>(p)] += sampler.weight() * (e - b);
    if (ring != nullptr) ring->push(Event{b, e, task, worker, p});
  }
};

}  // namespace rio::obs
