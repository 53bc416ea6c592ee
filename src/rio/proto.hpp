// proto:: — the sync-word seam between shipped and verified code.
//
// Algorithm 2 (src/rio/data_object.hpp, shared by the full and the pruned
// rio unroll), COOR's dependency counters (src/coor), the
// wait-free ready ring (src/coor/ready_ring.hpp) and the per-worker
// doorbells (src/rio/doorbell.hpp) all reduce to a handful of tiny
// operations on a shared machine word:
//
//   load_acq     acquire load
//   store_rel    release store
//   store_rlx    relaxed store (the nb_reads reset inside terminate_write)
//   fetch_add    acq_rel read-modify-write
//   cas          acq_rel compare-exchange (ring slot/cursor claims)
//   wait_equal   block until the word equals a local replica value
//   wait_changed block until the word differs from a sampled value
//   notify       wake parked waiters (kBlock policy)
//
// This header defines those operations for plain std::atomic<T> — they
// compile to exactly the loads/stores/futex calls the code used before the
// seam existed. The protocol routines are templates over the *shared-state
// type* and call these operations UNQUALIFIED after `using proto::...;`
// declarations, so argument-dependent lookup can substitute a
// checker-instrumented word type: mc::impl (src/modelcheck/impl.hpp)
// defines the same six functions for its mc::impl::Word<T> and thereby runs
// the very same protocol functions under a controlled scheduler. The
// verified code and the shipped code are the same functions; only the word
// type differs.
//
// Contract for an alternative word type W<T>:
//   * load_acq(const W<T>&) -> T            acquire semantics
//   * store_rel(W<T>&, T)                   release semantics
//   * store_rlx(W<T>&, T)                   no ordering (callers sequence it
//                                           before a store_rel on another
//                                           word of the same object)
//   * fetch_add(W<T>&, T) -> T              acq_rel, returns the OLD value
//   * cas(W<T>&, T& expected, T desired)
//       -> bool                             acq_rel strong compare-exchange;
//                                           on failure loads the observed
//                                           value into `expected`
//   * wait_equal(const W<T>&, T expected, WaitPolicy,
//                const std::atomic<bool>* abort, std::uint64_t* spins)
//       -> bool                             true when equality was reached,
//                                           false on abort; must re-check
//                                           the value before parking
//   * wait_changed(const W<T>&, T old, WaitPolicy, std::uint64_t* spins)
//                                           returns once the word moved
//                                           away from `old`; kBlock parks
//                                           futex-style on the sampled value
//   * notify(W<T>&, WaitPolicy)             wake all waiters iff kBlock
#pragma once

#include <atomic>
#include <cstdint>

#include "support/wait.hpp"

namespace rio::proto {

template <typename T>
[[nodiscard]] inline T load_acq(const std::atomic<T>& word) noexcept {
  return word.load(std::memory_order_acquire);
}

template <typename T>
inline void store_rel(std::atomic<T>& word, T value) noexcept {
  word.store(value, std::memory_order_release);
}

template <typename T>
inline void store_rlx(std::atomic<T>& word, T value) noexcept {
  word.store(value, std::memory_order_relaxed);
}

template <typename T>
inline T fetch_add(std::atomic<T>& word, T delta) noexcept {
  return word.fetch_add(delta, std::memory_order_acq_rel);
}

template <typename T>
inline bool cas(std::atomic<T>& word, T& expected, T desired) noexcept {
  return word.compare_exchange_strong(expected, desired,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire);
}

template <typename T>
inline bool wait_equal(const std::atomic<T>& word, T expected,
                       support::WaitPolicy policy,
                       const std::atomic<bool>* abort = nullptr,
                       std::uint64_t* spins = nullptr) noexcept {
  return support::wait_until_equal_or(word, expected, policy, abort, spins);
}

template <typename T>
inline void wait_changed(const std::atomic<T>& word, T old,
                         support::WaitPolicy policy,
                         std::uint64_t* spins = nullptr) noexcept {
  support::wait_until_changed(word, old, policy, spins);
}

template <typename T>
inline void notify(std::atomic<T>& word, support::WaitPolicy policy) noexcept {
  if (policy == support::WaitPolicy::kBlock) word.notify_all();
}

}  // namespace rio::proto
