// Decentralized data synchronization — Algorithm 2 of the paper.
//
// Every shared-memory region managed by the runtime is represented by a
// *data object* with two halves:
//
//   * a SHARED state, written with release semantics by whichever worker
//     executes an operation on the data:
//       - last_executed_write:  Task ID of the last write PERFORMED
//       - nb_reads_since_write: number of reads PERFORMED since that write
//
//   * a LOCAL state, private to each worker (plain non-atomic memory),
//     updated while the worker unrolls the task flow:
//       - last_registered_write:  Task ID of the last write ENCOUNTERED
//       - nb_reads_since_write:   reads ENCOUNTERED since that write
//
// A reader may proceed once the shared last-executed write catches up with
// the write it registered locally; a writer additionally waits until the
// shared read count matches the reads it has seen. The cost for a task NOT
// mapped on this worker is one or two writes to private memory — the
// property that makes the decentralized model cheap (Section 3.4).
//
// Space: 2 shared words per data object + 2 words per (worker, data) pair,
// independent of the number of tasks.
// All shared-word traffic goes through the proto:: seam (src/rio/proto.hpp):
// the routines below are templates over the shared-state type and call the
// seam operations unqualified, so mc::impl can substitute an instrumented
// word type and model-check these exact functions. For the production
// SharedDataState they inline to the same atomics as before the seam.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "support/align.hpp"
#include "support/wait.hpp"
#include "rio/doorbell.hpp"
#include "rio/proto.hpp"
#include "stf/types.hpp"

namespace rio::rt {

/// Sentinel for "no write encountered/performed yet". Shared and local
/// state both start here, so the very first reader sails through.
inline constexpr stf::TaskId kNoWrite = stf::kInvalidTask;

/// Shared half of a data object: both sync words packed into ONE cache
/// line. The two words are always touched together at a release boundary
/// (publish_write stores both; a get_write waits on both), so splitting
/// them across two lines bought nothing while doubling the footprint of
/// the per-handle sync-word array — what matters for false sharing is that
/// *adjacent handles* never share a line, which the alignas guarantees.
/// Halving the stride also doubles how many hot handles fit in L1/L2.
struct alignas(support::kCacheLineSize) SharedDataState {
  // Nested one-member structs keep the `.value` access shape shared with
  // support::AlignedAtomic, so the protocol templates are unchanged.
  struct {
    std::atomic<stf::TaskId> value;
  } last_executed_write;
  struct {
    std::atomic<std::uint64_t> value;
  } nb_reads_since_write;

  SharedDataState() {
    last_executed_write.value.store(kNoWrite, std::memory_order_relaxed);
    nb_reads_since_write.value.store(0, std::memory_order_relaxed);
  }
};
static_assert(sizeof(SharedDataState) == support::kCacheLineSize,
              "per-handle sync words must occupy exactly one cache line");

/// Worker-private half. Plain integers: only ever touched by the owner.
struct LocalDataState {
  stf::TaskId last_registered_write = kNoWrite;
  std::uint64_t nb_reads_since_write = 0;
};

// ---------------------------------------------------------------------------
// Algorithm 2 routines. `declare_*` run on workers skipping a task;
// `get_*` / `terminate_*` run on the executing worker.
// ---------------------------------------------------------------------------

/// declare_read: a read by some other worker passed by; count it locally.
inline void declare_read(LocalDataState& local) noexcept {
  local.nb_reads_since_write += 1;
}

/// declare_write: a write by some other worker passed by; it becomes the
/// write all later operations (locally) depend on.
inline void declare_write(LocalDataState& local, stf::TaskId task_id) noexcept {
  local.nb_reads_since_write = 0;
  local.last_registered_write = task_id;
}

/// Placeholder doorbell type for callers that never park on a bell
/// (kSpinYield, watched runs, the sequential declare loops).
struct NoBell {};

/// acquire_for: the protocol wait both executors share. Blocks until the
/// shared last-executed write equals `expected_writer`; a write access
/// additionally waits until the shared read count equals `expected_reads`
/// (write-after-read ordering). get_read / get_write pass the worker's
/// local replica — declared by a full unroll, seeded from the plan by a
/// pruned one. Returns whether the access stalled (feeds the
/// idle-time statistics). A non-null `abort` (the progress watchdog's flag)
/// lets the wait give up so a stalled run can drain instead of hanging; a
/// non-null `spins` accumulates wait rounds for the obs spin-iteration
/// counter.
///
/// A non-NoBell `bell` switches the kBlock policy to doorbell parking
/// (src/rio/doorbell.hpp): the worker parks on its own bell instead of the
/// sync word, and producers must publish with word_notify = false plus a
/// ring_doorbell() at their release boundary. Bells imply abort == nullptr
/// (watched runs keep the classic per-word path).
template <typename Shared, typename Bell = NoBell>
inline bool acquire_for(const Shared& shared, stf::TaskId expected_writer,
                        std::uint64_t expected_reads, bool for_write,
                        support::WaitPolicy policy,
                        const std::atomic<bool>* abort = nullptr,
                        std::uint64_t* spins = nullptr, Bell* bell = nullptr) {
  using proto::load_acq;
  using proto::wait_equal;
  bool stalled = false;
  if (load_acq(shared.last_executed_write.value) != expected_writer) {
    stalled = true;
    if constexpr (!std::is_same_v<Bell, NoBell>) {
      if (bell != nullptr) {
        bell_wait_equal(shared.last_executed_write.value, expected_writer,
                        *bell, spins);
      } else if (!wait_equal(shared.last_executed_write.value, expected_writer,
                             policy, abort, spins)) {
        return stalled;
      }
    } else if (!wait_equal(shared.last_executed_write.value, expected_writer,
                           policy, abort, spins)) {
      return stalled;  // aborted: skip the dependent read-count wait too
    }
  }
  if (for_write &&
      load_acq(shared.nb_reads_since_write.value) != expected_reads) {
    stalled = true;
    if constexpr (!std::is_same_v<Bell, NoBell>) {
      if (bell != nullptr) {
        bell_wait_equal(shared.nb_reads_since_write.value, expected_reads,
                        *bell, spins);
        return stalled;
      }
    }
    wait_equal(shared.nb_reads_since_write.value, expected_reads, policy,
               abort, spins);
  }
  return stalled;
}

/// get_read: block until every write this worker registered before the
/// current task has been performed.
template <typename Shared, typename Bell = NoBell>
inline bool get_read(const Shared& shared, const LocalDataState& local,
                     support::WaitPolicy policy,
                     const std::atomic<bool>* abort = nullptr,
                     std::uint64_t* spins = nullptr, Bell* bell = nullptr) {
  return acquire_for(shared, local.last_registered_write,
                     local.nb_reads_since_write, /*for_write=*/false, policy,
                     abort, spins, bell);
}

/// get_write: additionally block until all reads since that write have been
/// performed.
template <typename Shared, typename Bell = NoBell>
inline bool get_write(const Shared& shared, const LocalDataState& local,
                      support::WaitPolicy policy,
                      const std::atomic<bool>* abort = nullptr,
                      std::uint64_t* spins = nullptr, Bell* bell = nullptr) {
  return acquire_for(shared, local.last_registered_write,
                     local.nb_reads_since_write, /*for_write=*/true, policy,
                     abort, spins, bell);
}

/// publish_read: the shared half of terminate_read — one more read
/// performed. The read counter is a wait target under kBlock, so waiters
/// are notified after the increment — unless the run uses doorbells
/// (word_notify = false), in which case the producer's release-boundary
/// ring_doorbell() carries the wake instead.
template <typename Shared>
inline void publish_read(Shared& shared, support::WaitPolicy policy,
                         bool word_notify = true) {
  using proto::fetch_add;
  using proto::notify;
  fetch_add(shared.nb_reads_since_write.value, std::uint64_t{1});
  if (word_notify) notify(shared.nb_reads_since_write.value, policy);
}

/// publish_write: the shared half of terminate_write — reset the shared
/// read counter BEFORE publishing the new write id. A successor passes its
/// first wait only after observing the new id (acquire), so it can never
/// see the stale pre-reset read count. Both words are wait targets under
/// kBlock; notify both (or neither, under doorbells).
template <typename Shared>
inline void publish_write(Shared& shared, stf::TaskId task_id,
                          support::WaitPolicy policy,
                          bool word_notify = true) {
  using proto::notify;
  using proto::store_rel;
  using proto::store_rlx;
  store_rlx(shared.nb_reads_since_write.value, std::uint64_t{0});
  store_rel(shared.last_executed_write.value, task_id);
  if (word_notify) {
    notify(shared.last_executed_write.value, policy);
    notify(shared.nb_reads_since_write.value, policy);
  }
}

/// terminate_read: publish that one more read was performed, then register
/// it locally like any other worker would.
template <typename Shared>
inline void terminate_read(Shared& shared, LocalDataState& local,
                           support::WaitPolicy policy,
                           bool word_notify = true) {
  publish_read(shared, policy, word_notify);
  declare_read(local);
}

/// terminate_write: publish the new write, then register it locally.
template <typename Shared>
inline void terminate_write(Shared& shared, LocalDataState& local,
                            stf::TaskId task_id,
                            support::WaitPolicy policy,
                            bool word_notify = true) {
  publish_write(shared, task_id, policy, word_notify);
  declare_write(local, task_id);
}

}  // namespace rio::rt
