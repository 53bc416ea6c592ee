// Per-worker doorbells: batched block-policy wakeups for Algorithm 2.
//
// A notify per published sync word would cost up to two futex-wake
// syscalls per access even when nobody is parked. Doorbells move parking
// off the protocol words entirely: each worker owns ONE doorbell word, and
// a stalled worker parks on its own bell instead of the sync word it is
// waiting for. Producers publish a whole task's accesses with plain
// release stores and ring every other worker's bell ONCE at the task's
// release boundary — one RMW per peer per task, and the futex wake itself
// is issued only when the bell's owner is actually parked.
//
// The bell is a single 64-bit word combining the two doorbell roles:
//   * low 32 bits  — waiter count. Only the OWNER ever touches these
//     (register/deregister around its park), which is what makes one
//     combined word safe here: the value a parked owner waits on can only
//     move by producer version bumps. (The multi-waiter ready ring needs
//     the two words split — see coor/ready_ring.hpp.)
//   * high 32 bits — version. Bumped by any producer's ring_doorbell();
//     the single fetch_add doubles as the waiter probe since it returns
//     the old value.
//
// Missed-wakeup argument (same RMW-Dekker shape as the ready ring): the
// owner registers with an RMW on the bell and THEN re-checks the sync
// word; a producer publishes the sync word and THEN bumps the bell with an
// RMW. Whichever RMW lands second in the bell's modification order
// observes the other side's first operation, so either the owner sees the
// published value and never parks, or the producer sees the waiter bit and
// issues the wake. The park itself is futex-faithful (wait on the sampled
// bell value), so mc::impl explores exactly this protocol and drop_notify
// on the bell path is caught as a lost wakeup.
//
// Every kBlock run parks on bells, watched or not. The watchdog's abort
// takes the sync word's place in the same argument: the fire callback
// stores `abort` and THEN rings every worker's bell, and a waiter checks
// `abort` after its registering RMW and before it parks. Whichever RMW on
// the bell lands second sees the other side's first step, so a parked
// worker either sees the abort or is woken by the ring.
#pragma once

#include <atomic>
#include <cstdint>

#include "rio/proto.hpp"
#include "support/wait.hpp"

namespace rio::rt {

inline constexpr std::uint64_t kBellWaiter = 1;
inline constexpr std::uint64_t kBellWaiterMask = 0xffffffffull;
inline constexpr std::uint64_t kBellVersion = std::uint64_t{1} << 32;

/// Waits until `word == expected`, parking on the caller's own doorbell,
/// or until `*abort` (when non-null) becomes true. Returns true when
/// equality was reached, false on abort. Only the bell's owner may call
/// this (single-registrant invariant). Producers must ring_doorbell()
/// after publishing, and whoever sets `abort` must ring every bell after
/// it, so every version bump is a "something you may be waiting for
/// changed" hint; spurious bumps simply re-check and park again.
template <typename Word, typename Bell, typename T>
bool bell_wait_equal(const Word& word, T expected, Bell& bell,
                     const std::atomic<bool>* abort, std::uint64_t* spins) {
  using proto::fetch_add;
  using proto::load_acq;
  using proto::wait_changed;
  std::uint64_t rounds = 0;
  bool reached = true;
  for (;;) {
    if (load_acq(word) == expected) break;
    ++rounds;
    // Register, then re-check: the fetch_add returns the pre-registration
    // bell value, so `seen` is exactly the value we may park against.
    const std::uint64_t seen = fetch_add(bell, kBellWaiter) + kBellWaiter;
    if (load_acq(word) == expected) {
      fetch_add(bell, std::uint64_t{0} - kBellWaiter);
      break;
    }
    if (abort != nullptr && abort->load(std::memory_order_acquire)) {
      fetch_add(bell, std::uint64_t{0} - kBellWaiter);
      reached = false;
      break;
    }
    wait_changed(bell, seen, support::WaitPolicy::kBlock, spins);
    fetch_add(bell, std::uint64_t{0} - kBellWaiter);
  }
  if (spins != nullptr) *spins += rounds;
  return reached;
}

/// Bumps one peer's bell at a release boundary. Returns true when a futex
/// wake was issued (the owner was parked), false when it was elided — the
/// kWakeupsIssued / kWakeupsElided telemetry feed.
template <typename Bell>
bool ring_doorbell(Bell& bell, support::WaitPolicy policy) {
  using proto::fetch_add;
  using proto::notify;
  const std::uint64_t old = fetch_add(bell, kBellVersion);
  if ((old & kBellWaiterMask) != 0) {
    notify(bell, policy);
    return true;
  }
  return false;
}

}  // namespace rio::rt
