#include "stf/flow_image.hpp"

#include <atomic>
#include <cstring>
#include <limits>

namespace rio::stf {
namespace {

std::uint64_t next_serial() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Bumps `offset` to the next multiple of `align` and returns the aligned
/// offset. All our arrays align to <= 8, and operator new[] hands back
/// max_align_t-aligned storage, so offsets are the only thing to manage.
std::size_t align_up(std::size_t offset, std::size_t align) noexcept {
  return (offset + align - 1) & ~(align - 1);
}

// FNV-1a, 64-bit. Only used for image fingerprints; collisions merely cost
// a redundant plan compile downstream, never correctness.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffU;
    h *= kFnvPrime;
  }
}

void fnv_mix_bytes(std::uint64_t& h, const char* p, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= kFnvPrime;
  }
}

}  // namespace

FlowImage::FlowImage(const Task* tasks, std::size_t n,
                     const DataRegistry& registry)
    : src_(tasks),
      registry_(&registry),
      n_(n),
      num_data_(registry.size()),
      serial_(next_serial()) {
  // Pass 1: sizes. Ids must equal positions — true for every materialized
  // flow and required for task_id(i) to be computable without touching the
  // Task record.
  std::size_t name_bytes = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const Task& t = src_[i];
    RIO_ASSERT_MSG(t.id == i, "FlowImage requires task ids 0..n-1");
    total_acc_ += t.accesses.size();
    total_cost_ += t.cost;
    name_bytes += t.name.size();
  }
  RIO_ASSERT_MSG(total_acc_ <= std::numeric_limits<std::uint32_t>::max() &&
                     name_bytes <= std::numeric_limits<std::uint32_t>::max(),
                 "flow too large for 32-bit image offsets");

  // Single arena, arrays ordered by descending alignment.
  std::size_t off = 0;
  const std::size_t costs_off = off;
  off += n_ * sizeof(std::uint64_t);
  const std::size_t spans_off = align_up(off, alignof(Span));
  off = spans_off + n_ * sizeof(Span);
  const std::size_t prios_off = align_up(off, alignof(std::int32_t));
  off = prios_off + n_ * sizeof(std::int32_t);
  const std::size_t name_off_off = align_up(off, alignof(std::uint32_t));
  off = name_off_off + (n_ + 1) * sizeof(std::uint32_t);
  const std::size_t acc_off = align_up(off, alignof(Access));
  off = acc_off + total_acc_ * sizeof(Access);
  const std::size_t chars_off = off;
  off += name_bytes;

  arena_ = std::make_unique<std::byte[]>(off > 0 ? off : 1);
  std::byte* base = arena_.get();
  auto* costs = reinterpret_cast<std::uint64_t*>(base + costs_off);
  auto* spans = reinterpret_cast<Span*>(base + spans_off);
  auto* prios = reinterpret_cast<std::int32_t*>(base + prios_off);
  auto* name_off = reinterpret_cast<std::uint32_t*>(base + name_off_off);
  auto* acc = reinterpret_cast<Access*>(base + acc_off);
  auto* chars = reinterpret_cast<char*>(base + chars_off);

  // Pass 2: fill, hashing the content as it streams by. The fingerprint
  // covers everything an engine's plan can depend on: position, cost,
  // priority, name and the full access list.
  std::uint64_t fp = kFnvOffset;
  fnv_mix(fp, n_);
  std::uint32_t acc_cursor = 0;
  std::uint32_t char_cursor = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const Task& t = src_[i];
    costs[i] = t.cost;
    prios[i] = t.priority;
    spans[i].begin = acc_cursor;
    for (const Access& a : t.accesses) acc[acc_cursor++] = a;
    spans[i].end = acc_cursor;
    name_off[i] = char_cursor;
    if (!t.name.empty()) {
      std::memcpy(chars + char_cursor, t.name.data(), t.name.size());
      char_cursor += static_cast<std::uint32_t>(t.name.size());
    }
    fnv_mix(fp, t.cost);
    fnv_mix(fp, static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.priority)));
    fnv_mix_bytes(fp, t.name.data(), t.name.size());
    for (const Access& a : t.accesses) {
      fnv_mix(fp, a.data);
      fnv_mix(fp, static_cast<std::uint64_t>(a.mode));
    }
  }
  name_off[n_] = char_cursor;
  fingerprint_ = fp;

  costs_ = costs;
  spans_ = spans;
  prios_ = prios;
  name_off_ = name_off;
  acc_ = acc;
  name_chars_ = chars;
}

}  // namespace rio::stf
