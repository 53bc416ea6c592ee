// Wait policies for dependency stalls.
//
// Algorithm 2 of the paper contains two "wait for <shared word> == <local
// value>" loops; coor's ready-ring pops and the block policy's doorbell
// parks wait for a word to change. All of them wait through one loop here,
// in two phases:
//   * a spin phase of bounded bursts: at most Backoff::kBurst pauses
//     between two loads of the waited word, for a wall-time budget of
//     Backoff::kSpinBudgetNs;
//   * then kSpinYield yields the thread between checks (safe when workers
//     outnumber cores), and kBlock parks it in the kernel with
//     std::atomic::wait (futex on Linux).
//
// Why the burst is bounded: a cross-worker handoff in a chain waits about
// two task lengths, around 1 µs, and every handoff is on the critical
// path. A burst that grows towards 64 pauses (a pause costs 14-16 ns on
// the 4-vCPU KVM guest the benches run on) is still pausing when the word
// flips, so the waiter oversleeps each handoff; on bench/e2e's
// chain-handoff such a burst doubled rio's run time. One pause per check
// notices the flip within about 20 ns.
//
// Why the budget is time: 5 µs is about 320 pauses here, but a 140-cycle
// pause or a TSan build would stretch a pause count several times over.
// The clock is read once per Backoff::kClockStride checks, and never on
// the already-satisfied fast path, which constructs no Backoff.
//
// With a bounded burst a policy that never yields wins nowhere: in the
// committed policy table (BENCH_wait_policy.json, docs/perf.md) the default
// is within 10% of the best policy on every rio row.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "support/clock.hpp"

namespace rio::support {

/// Selects how a worker waits, once the spin phase is over, for a shared
/// atomic to reach a target value. The values are fixed (0 is unused) so
/// that printed test parameters keep their bytes.
enum class WaitPolicy : std::uint8_t {
  kSpinYield = 1,  ///< bounded spin, then std::this_thread::yield
  kBlock = 2,      ///< bounded spin, then std::atomic::wait (futex)
};

/// Architectural pause: lowers power and frees pipeline slots for the
/// sibling hyperthread while spinning.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Bounded spin backoff with a wall-time budget.
///
/// Each spin() is one check interval: at most kBurst pauses before the
/// caller loads the waited word again. The spin phase ends on time, not on
/// a round count: the clock is read once every kClockStride checks, the
/// first read starts the budget, and the first read past kSpinBudgetNs ends
/// the phase for good. After that spin() returns 0 and the caller yields or
/// parks.
class Backoff {
 public:
  static constexpr std::uint32_t kBurst = 1;            ///< pauses per check
  static constexpr std::uint32_t kClockStride = 16;     ///< checks per clock read
  static constexpr std::uint64_t kSpinBudgetNs = 5000;  ///< spin phase length

  /// One check interval. Returns the pauses it performed: kBurst while the
  /// spin phase lasts, 0 (and no pause) once the budget is spent.
  std::uint32_t spin() noexcept {
    if (spent_) return 0;
    if (++checks_ % kClockStride == 0) {
      const std::uint64_t now = monotonic_ns();
      if (deadline_ == 0) {
        deadline_ = now + kSpinBudgetNs;
      } else if (now >= deadline_) {
        spent_ = true;
        return 0;
      }
    }
    for (std::uint32_t i = 0; i < kBurst; ++i) cpu_pause();
    return kBurst;
  }

  void yield() noexcept { std::this_thread::yield(); }

 private:
  std::uint64_t deadline_ = 0;  ///< 0 until the first clock read
  std::uint32_t checks_ = 0;
  bool spent_ = false;
};

namespace detail {

/// The one wait loop: one Backoff step, then `ready()`, until it holds.
/// After the spin phase a kBlock wait calls `park()` (which blocks until
/// the word may have moved) and every other wait yields. A non-null
/// `abort` is polled once per check, and it turns kBlock into the yielding
/// poll too: a futex park cannot observe the abort flag. Returns false on
/// abort. A non-null `spins` receives the number of checks, accumulated in
/// a local and flushed on exit so the loop stays free of extra memory
/// traffic.
template <typename Ready, typename Park>
bool wait_loop(Ready&& ready, Park&& park, WaitPolicy policy,
               const std::atomic<bool>* abort, std::uint64_t* spins) noexcept {
  Backoff backoff;
  std::uint64_t checks = 0;
  bool reached = true;
  for (;;) {
    ++checks;
    if (abort != nullptr && abort->load(std::memory_order_acquire)) {
      reached = false;
      break;
    }
    if (backoff.spin() == 0) {
      if (policy == WaitPolicy::kBlock && abort == nullptr)
        park();
      else
        backoff.yield();
    }
    if (ready()) break;
  }
  if (spins != nullptr) *spins += checks;
  return reached;
}

}  // namespace detail

/// Blocks until `word.load(acquire) == expected`, following `policy`, or
/// until `*abort` becomes true — the progress watchdog's escape hatch for
/// waits whose expected value will never arrive. Returns true when
/// equality was reached, false on abort.
///
/// The predicate is an equality on purpose: both waits in Algorithm 2
/// compare a thread-local replica against the shared state, and equality
/// (not >=) is what keeps the protocol correct for writes that reset
/// nb_reads_since_write to zero.
template <typename T>
bool wait_until_equal_or(const std::atomic<T>& word, T expected,
                         WaitPolicy policy, const std::atomic<bool>* abort,
                         std::uint64_t* spins = nullptr) noexcept {
  const auto ready = [&] {
    return word.load(std::memory_order_acquire) == expected;
  };
  if (ready()) return true;
  return detail::wait_loop(
      ready,
      [&] {
        // atomic::wait needs the *current* (unwanted) value; re-read it to
        // avoid a missed wakeup between the check and the park.
        const T current = word.load(std::memory_order_acquire);
        if (current != expected) word.wait(current, std::memory_order_acquire);
      },
      policy, abort, spins);
}

/// wait_until_equal_or without an abort flag.
template <typename T>
void wait_until_equal(const std::atomic<T>& word, T expected,
                      WaitPolicy policy,
                      std::uint64_t* spins = nullptr) noexcept {
  wait_until_equal_or(word, expected, policy, nullptr, spins);
}

/// Blocks until `word.load(acquire) != old`, following `policy`, or until
/// `*abort` becomes true. Returns true when the word moved, false on
/// abort.
///
/// The inequality predicate is the doorbell/version shape: producers only
/// ever *bump* the word (monotone fetch_add), so "changed since I sampled
/// it" is exactly "something was published after my sample". Unlike the
/// equality wait, kBlock can park directly on the sampled value —
/// std::atomic::wait(old) already returns when the word differs from old,
/// so there is no check/park re-read gap to close.
template <typename T>
bool wait_until_changed_or(const std::atomic<T>& word, T old,
                           WaitPolicy policy, const std::atomic<bool>* abort,
                           std::uint64_t* spins = nullptr) noexcept {
  const auto ready = [&] {
    return word.load(std::memory_order_acquire) != old;
  };
  if (ready()) return true;
  return detail::wait_loop(
      ready, [&] { word.wait(old, std::memory_order_acquire); }, policy,
      abort, spins);
}

/// Store + wake for the kBlock policy. Release ordering publishes all task
/// side effects before dependents are allowed through.
template <typename T>
void store_and_notify(std::atomic<T>& word, T value, WaitPolicy policy) noexcept {
  word.store(value, std::memory_order_release);
  if (policy == WaitPolicy::kBlock) word.notify_all();
}

/// Human-readable policy name for bench/report output.
constexpr const char* to_string(WaitPolicy p) noexcept {
  switch (p) {
    case WaitPolicy::kSpinYield: return "spin-yield";
    case WaitPolicy::kBlock: return "block";
  }
  return "?";
}

}  // namespace rio::support
