// Bounded wait-free MPMC ready ring for the centralized OoO runtime.
//
// The locked ReadyQueue (ready_queue.hpp) is the paper's cost-model-(1)
// bottleneck made concrete: every dispatch serializes on one mutex. This
// ring replaces it for central FIFO dispatch (engine::Launch's default
// queue; it pops FIFO only, so lifo keeps the locked deque) with the
// classic bounded MPMC design
// (per-slot sequence words + CAS-claimed cursors, à la Vyukov): producers
// claim a slot by CAS on `tail_`, publish the value with a release store of
// the slot's sequence word, and consumers claim by CAS on `head_`. The
// capacity is sized to the total task count (a task id is enqueued at most
// once per run), so the ring never wraps and "full" is unreachable; pushes
// are therefore wait-free apart from the CAS claim, and pops are lock-free.
//
// Idle consumers wait on a separate *doorbell pair*:
//   * `version_` — bumped (fetch_add, release RMW) by every push and by
//     close(). Consumers sample it before a failed pop and park until it
//     moves (proto::wait_changed). Because only producers bump it, the
//     parked-on word changes a finite number of times — which keeps the
//     model checker's state space finite and makes the futex protocol
//     obviously live.
//   * `waiters_` — count of consumers currently registered to park. Under
//     kBlock a producer probes it (fetch_add of 0 — an RMW on purpose, see
//     below) after bumping `version_` and only issues the futex wake when
//     it is non-zero: the syscall is elided whenever nobody sleeps.
//
// Missed-wakeup argument (the Dekker pattern): the consumer registers on
// `waiters_` (RMW) and then parks only if `version_` still equals its
// sample; the producer bumps `version_` (RMW) and then probes `waiters_`
// (RMW). Both sides' first op is a read-modify-write, so on every target
// architecture the second op observes the other side's first op whenever
// the probe misses the registration — a pure load probe would not give
// that guarantee under store->load reordering. The model checker explores
// this interleaving space directly (kBlock parks are futex-faithful) and
// the drop_notify shim demonstrates the wake is load-bearing.
//
// Every shared word is accessed through the proto:: seam (unqualified
// calls resolved by ADL), so mc::impl can substitute its instrumented
// Word<T> and model-check this exact code. The word type is a template
// parameter for that reason; the `Init` constructor functor lets the
// checker bind each word to its controlled-scheduler table.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "rio/proto.hpp"
#include "support/align.hpp"
#include "support/wait.hpp"

namespace rio::coor {

/// Which ready-queue implementation the engine uses for central modes.
enum class QueueKind : std::uint8_t {
  kLocked,  ///< mutex + condvar deque (ready_queue.hpp) — all schedulers
  kRing,    ///< wait-free MPMC ring — central fifo only; the engine
            ///< falls back to kLocked for kLifo/kPriority/kLocality
};

constexpr const char* to_string(QueueKind k) noexcept {
  switch (k) {
    case QueueKind::kLocked: return "locked";
    case QueueKind::kRing: return "ring";
  }
  return "?";
}

/// The structured "ring sized too small" error: the capacity contract
/// (>= total pushes over the ring's lifetime) was violated and a push was
/// about to wrap a full lap onto an unconsumed slot. Carries the sizing
/// facts the caller needs to fix the launch; throwing beats the silent
/// value loss (or livelock) the wrap would otherwise degenerate to.
class RingOverflow : public std::logic_error {
 public:
  RingOverflow(std::size_t capacity, std::uint64_t position,
               std::uint64_t high_watermark)
      : std::logic_error(
            "ready ring overflow: push position " + std::to_string(position) +
            " wraps capacity " + std::to_string(capacity) +
            " (high watermark " + std::to_string(high_watermark) +
            "); size the ring to the total task count"),
        capacity_(capacity),
        high_watermark_(high_watermark) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t high_watermark() const noexcept {
    return high_watermark_;
  }

 private:
  std::size_t capacity_;
  std::uint64_t high_watermark_;
};

/// Bounded MPMC ring of task ids. `Word64` is std::atomic<std::uint64_t>
/// in production and mc::impl::Word<std::uint64_t> under the checker.
template <typename Word64>
class ReadyRingT {
 public:
  /// `capacity` must be >= the total number of pushes over the ring's
  /// lifetime (task count); it is rounded up to a power of two. `init`
  /// is called as init(word, initial_value) for every shared word.
  template <typename Init>
  ReadyRingT(std::size_t capacity, Init&& init) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::vector<Slot>(cap);
    // Slot i is writable once its sequence word equals its index (Vyukov's
    // invariant: seq == pos means "free for the push at position pos",
    // seq == pos + 1 means "holds the value pushed at position pos").
    for (std::size_t i = 0; i < cap; ++i) {
      init(slots_[i].seq, static_cast<std::uint64_t>(i));
    }
    init(head_, 0);
    init(tail_, 0);
    init(version_, 0);
    init(waiters_, 0);
    init(closed_, 0);
  }

  /// Enqueues `value` and rings the doorbell. Returns true when a futex
  /// wake was issued (a parked consumer existed), false when the wake was
  /// elided or the policy never parks — the issued/elided telemetry feed.
  bool push(std::uint64_t value, support::WaitPolicy policy) {
    using proto::cas;
    using proto::fetch_add;
    using proto::load_acq;
    using proto::notify;
    using proto::store_rel;
    std::uint64_t pos = load_acq(tail_);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = load_acq(slot.seq);
      if (seq == pos) {
        if (cas(tail_, pos, pos + 1)) {
          slot.value = value;
          store_rel(slot.seq, pos + 1);
          // Telemetry-only high watermark (relaxed CAS-max, off the
          // protocol seam): feeds the overflow diagnostic and lets sizing
          // be audited after a run.
          const std::uint64_t h = load_acq(head_);
          const std::uint64_t occ = pos + 1 > h ? pos + 1 - h : 0;
          std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
          while (occ > hw &&
                 !high_water_.compare_exchange_weak(
                     hw, occ, std::memory_order_relaxed)) {
          }
          break;
        }
        // cas loaded the observed tail into pos; retry against it.
      } else if (seq > pos) {
        // Another producer claimed this position; chase the cursor.
        pos = load_acq(tail_);
      } else {
        // seq < pos means the ring wrapped a full lap: the capacity
        // contract (>= total pushes) was violated. In correct use this
        // state is unreachable even transiently — slot sequence words
        // never trail the claimed position — so fail loudly with the
        // sizing facts instead of losing the value or livelocking.
        throw RingOverflow(mask_ + 1, pos,
                           high_water_.load(std::memory_order_relaxed));
      }
    }
    fetch_add(version_, std::uint64_t{1});
    if (policy == support::WaitPolicy::kBlock &&
        fetch_add(waiters_, std::uint64_t{0}) != 0) {
      notify(version_, policy);
      return true;
    }
    return false;
  }

  /// Non-blocking pop. Returns nullopt when the ring is (momentarily)
  /// empty.
  std::optional<std::uint64_t> try_pop() {
    using proto::cas;
    using proto::load_acq;
    using proto::store_rel;
    std::uint64_t pos = load_acq(head_);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = load_acq(slot.seq);
      if (seq == pos + 1) {
        if (cas(head_, pos, pos + 1)) {
          const std::uint64_t value = slot.value;
          // Hand the slot back to the producer of lap pos + capacity.
          store_rel(slot.seq, pos + mask_ + 1);
          return value;
        }
      } else if (seq <= pos) {
        return std::nullopt;  // nothing published at this position yet
      } else {
        pos = load_acq(head_);
      }
    }
  }

  /// Blocking pop: waits (per policy) while the ring is open and empty;
  /// returns nullopt once closed and drained, or on abort.
  std::optional<std::uint64_t> pop_blocking(support::WaitPolicy policy,
                                            const std::atomic<bool>* abort,
                                            std::uint64_t* spins) {
    using proto::fetch_add;
    using proto::load_acq;
    using proto::wait_changed;
    for (;;) {
      // Sample the doorbell BEFORE the pop attempt: a push that lands
      // after the failed attempt bumps version_ past the sample, so the
      // park below cannot sleep through it.
      const std::uint64_t ver = load_acq(version_);
      if (auto v = try_pop()) return v;
      if (load_acq(closed_) != 0) {
        // close() bumps version_ after setting closed_, so a racing
        // watchdog close is drained here rather than slept through.
        if (auto v = try_pop()) return v;
        return std::nullopt;
      }
      if (policy == support::WaitPolicy::kBlock && abort == nullptr) {
        fetch_add(waiters_, std::uint64_t{1});
        wait_changed(version_, ver, policy, nullptr, spins);
        fetch_add(waiters_, std::uint64_t{0} - 1);
      } else {
        // kSpinYield and watchdog-armed runs poll; the abort flag
        // (watchdog) must be able to unblock us without a notify.
        if (!wait_changed(version_, ver, policy, abort, spins)) {
          if (auto v = try_pop()) return v;
          return std::nullopt;
        }
      }
    }
  }

  /// Marks the stream complete: pops drain the remaining entries, then
  /// return nullopt. Wakes every parked consumer.
  void close(support::WaitPolicy policy) {
    using proto::fetch_add;
    using proto::notify;
    using proto::store_rel;
    store_rel(closed_, std::uint64_t{1});
    fetch_add(version_, std::uint64_t{1});
    if (policy == support::WaitPolicy::kBlock &&
        fetch_add(waiters_, std::uint64_t{0}) != 0) {
      notify(version_, policy);
    }
  }

  /// Highest observed occupancy (racy by nature; telemetry/sizing audit).
  [[nodiscard]] std::uint64_t high_watermark() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// Approximate occupancy (racy by nature; watchdog diagnostics only).
  [[nodiscard]] std::size_t size() {
    using proto::load_acq;
    const std::uint64_t t = load_acq(tail_);
    const std::uint64_t h = load_acq(head_);
    return t > h ? static_cast<std::size_t>(t - h) : 0;
  }

 private:
  struct Slot {
    Word64 seq;
    std::uint64_t value = 0;  // plain: published via the seq release store
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  alignas(support::kCacheLineSize) Word64 head_;
  alignas(support::kCacheLineSize) Word64 tail_;
  alignas(support::kCacheLineSize) Word64 version_;
  alignas(support::kCacheLineSize) Word64 waiters_;
  Word64 closed_;
  std::atomic<std::uint64_t> high_water_{0};  // telemetry, not protocol
};

/// Production instantiation.
using ReadyRing = ReadyRingT<std::atomic<std::uint64_t>>;

}  // namespace rio::coor
