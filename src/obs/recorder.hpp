// Per-worker fixed-capacity event rings: no locks, no allocation on the
// hot path, drop-oldest by overwrite with exact dropped-event accounting.
//
// Each ring has exactly one writer (its worker thread) and is drained only
// after that thread joined, so plain non-atomic indices are correct: the
// join gives the reader a happens-before edge over every push, and TSan
// agrees. Capacity is rounded up to a power of two so push is a masked
// store plus an increment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/phase.hpp"

namespace rio::obs {

class EventRing {
 public:
  explicit EventRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  /// Hot path: one store, one increment. Overwrites the oldest event once
  /// full; recorded()/dropped()/pushed() keep the books straight.
  void push(const Event& ev) noexcept {
    buf_[head_ & mask_] = ev;
    ++head_;
  }

  /// Accounts for `n` spans the lens's sampler left untimed (obs.hpp):
  /// they count as pushed and dropped but never touch the buffer.
  void skip(std::uint64_t n) noexcept { skipped_ += n; }

  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return head_ + skipped_;
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return head_ < buf_.size() ? head_ : buf_.size();
  }
  /// Spans not retained: sampled out by the lens plus stored events
  /// overwritten by ring wrap. Always pushed() == recorded() + dropped().
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return pushed() - recorded();
  }

  /// Appends the retained events to `out`, oldest first.
  void drain(std::vector<Event>& out) const {
    for (std::uint64_t i = head_ - recorded(); i < head_; ++i)
      out.push_back(buf_[i & mask_]);
  }

  void clear() noexcept {
    head_ = 0;
    skipped_ = 0;
  }

 private:
  std::vector<Event> buf_;
  std::uint64_t head_ = 0;
  std::uint64_t skipped_ = 0;
  std::size_t mask_ = 0;
};

/// The rings of every worker plus the sampling stride their lenses'
/// SpanSamplers apply before the clock reads (HubOptions::sample).
class Recorder {
 public:
  explicit Recorder(std::size_t ring_capacity, std::uint64_t stride = 1)
      : capacity_(ring_capacity), stride_(stride == 0 ? 1 : stride) {}

  /// Grows to at least `n` rings; existing rings keep their contents and
  /// their addresses (workers hold raw pointers across hybrid phases).
  void ensure(std::size_t n) {
    while (rings_.size() < n)
      rings_.push_back(std::make_unique<EventRing>(capacity_));
  }

  [[nodiscard]] std::size_t size() const noexcept { return rings_.size(); }
  [[nodiscard]] EventRing* ring(std::size_t w) noexcept {
    return w < rings_.size() ? rings_[w].get() : nullptr;
  }
  [[nodiscard]] const EventRing* ring(std::size_t w) const noexcept {
    return w < rings_.size() ? rings_[w].get() : nullptr;
  }
  [[nodiscard]] std::size_t ring_capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t stride() const noexcept { return stride_; }

  [[nodiscard]] std::uint64_t pushed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r->pushed();
    return n;
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r->recorded();
    return n;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r->dropped();
    return n;
  }

  void clear() noexcept {
    for (auto& r : rings_) r->clear();
  }

 private:
  std::size_t capacity_;
  std::uint64_t stride_;
  std::vector<std::unique_ptr<EventRing>> rings_;
};

}  // namespace rio::obs
