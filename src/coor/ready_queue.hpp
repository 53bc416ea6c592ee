// Locked ready-task queues for the centralized OoO runtime.
//
// A mutex + condition-variable protected deque: the serialization it
// causes under fine-grained load is the phenomenon the paper attributes to
// centralized execution models (Section 3.3, cost model (1)). It serves
// the lifo, priority and locality schedulers (a per-worker variant with
// stealing implements the locality ablation), and fifo under
// engine::Launch::queue = kLocked. Default fifo dispatch uses the
// wait-free ring in ready_ring.hpp instead.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <queue>

#include "stf/types.hpp"

namespace rio::coor {

/// How the scheduler orders ready tasks.
enum class SchedulerKind : std::uint8_t {
  kFifo,      ///< central queue, submission order among ready tasks
  kLifo,      ///< central stack, depth-first (cache-hot) order
  kLocality,  ///< per-worker queues keyed by written-data affinity
  kPriority,  ///< central queue ordered by Task::priority (e.g. bottom
              ///< levels — critical-path list scheduling)
};

constexpr const char* to_string(SchedulerKind k) noexcept {
  switch (k) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kLifo: return "lifo";
    case SchedulerKind::kLocality: return "locality";
    case SchedulerKind::kPriority: return "priority";
  }
  return "?";
}

/// Blocking MPMC queue of ready task ids. In prioritized mode pops return
/// the highest-priority entry (FIFO among equals) instead of queue order.
class ReadyQueue {
 public:
  explicit ReadyQueue(bool prioritized = false) : prioritized_(prioritized) {}

  /// Returns true when a waiter was actually notified. The syscall is
  /// skipped when nobody is parked: `waiters_` is maintained under `mu_`,
  /// so a consumer that is about to wait either (a) incremented it before
  /// we took the lock — we see it and notify — or (b) takes the lock after
  /// us, sees the pushed item, and never blocks.
  bool push(stf::TaskId t, bool lifo = false, std::int32_t priority = 0) {
    bool wake = false;
    {
      std::lock_guard lock(mu_);
      if (prioritized_) {
        heap_.push({priority, next_seq_++, t});
      } else if (lifo) {
        items_.push_front(t);
      } else {
        items_.push_back(t);
      }
      wake = waiters_ > 0;
    }
    if (wake) cv_.notify_one();
    return wake;
  }

  /// Pops the next task; blocks while the queue is open and empty.
  /// Returns nullopt once closed and drained.
  std::optional<stf::TaskId> pop() {
    std::unique_lock lock(mu_);
    ++waiters_;
    cv_.wait(lock, [&] { return !empty_locked() || closed_; });
    --waiters_;
    return take_locked();
  }

  /// Non-blocking pop from the back — used by work stealing so thieves and
  /// the owner touch opposite ends (prioritized queues have no "back":
  /// thieves get the best entry like everyone else).
  std::optional<stf::TaskId> try_steal() {
    std::lock_guard lock(mu_);
    if (prioritized_) return take_locked();
    if (items_.empty()) return std::nullopt;
    const stf::TaskId t = items_.back();
    items_.pop_back();
    return t;
  }

  /// Non-blocking pop from the front.
  std::optional<stf::TaskId> try_pop() {
    std::lock_guard lock(mu_);
    return take_locked();
  }

  /// Marks the stream complete; blocked and future pops drain then return
  /// nullopt.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return prioritized_ ? heap_.size() : items_.size();
  }

 private:
  struct Entry {
    std::int32_t priority;
    std::uint64_t seq;  // FIFO tie-break (smaller first)
    stf::TaskId task;
    bool operator<(const Entry& o) const noexcept {
      // std::priority_queue is a max-heap: higher priority wins, then
      // LOWER sequence number (so invert the seq comparison).
      if (priority != o.priority) return priority < o.priority;
      return seq > o.seq;
    }
  };

  [[nodiscard]] bool empty_locked() const {
    return prioritized_ ? heap_.empty() : items_.empty();
  }

  std::optional<stf::TaskId> take_locked() {
    if (prioritized_) {
      if (heap_.empty()) return std::nullopt;
      const stf::TaskId t = heap_.top().task;
      heap_.pop();
      return t;
    }
    if (items_.empty()) return std::nullopt;
    const stf::TaskId t = items_.front();
    items_.pop_front();
    return t;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<stf::TaskId> items_;
  std::priority_queue<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t waiters_ = 0;  // guarded by mu_
  bool prioritized_ = false;
  bool closed_ = false;
};

}  // namespace rio::coor
