#include "rio/pruning.hpp"

#include "support/assert.hpp"

namespace rio::rt {

PrunedPlan::PrunedPlan(const stf::FlowImage& image, const Mapping& mapping,
                       std::uint32_t num_workers) {
  RIO_ASSERT(mapping.valid() && num_workers > 0);
  const std::size_t n = image.size();
  const stf::FlowImage::Span* spans = image.spans();
  const stf::Access* acc = image.accesses();

  // Pass 1: evaluate the mapping once per task and snapshot, for every
  // access, the (last_writer, reads_since) pair a fully-unrolling worker's
  // replica would hold just before the task — the dependency analyzer's
  // scan state, kept per access instead of emitting edges. `state` IS that
  // replica.
  std::vector<std::uint32_t> owners(n);
  offsets_.assign(num_workers + 1, 0);
  seeds_.resize(image.num_accesses_total());
  std::vector<PrunedSeed> state(image.num_data());
  for (stf::TaskId id = 0; id < n; ++id) {
    const stf::WorkerId owner = mapping(id);
    RIO_ASSERT_MSG(owner < num_workers, "mapping produced out-of-range worker");
    owners[id] = owner;
    ++offsets_[owner + 1];

    const stf::FlowImage::Span s = spans[id];
    for (std::uint32_t k = s.begin; k != s.end; ++k)
      seeds_[k] = state[acc[k].data];
    for (std::uint32_t k = s.begin; k != s.end; ++k) {
      PrunedSeed& st = state[acc[k].data];
      if (is_write(acc[k].mode)) {
        st = {id, 0};
      } else {
        st.expected_reads += 1;
      }
    }
  }

  // Pass 2: counts -> slice bounds, then scatter each task index into its
  // owner's slice (flow order is preserved within a slice).
  for (std::uint32_t w = 0; w < num_workers; ++w)
    offsets_[w + 1] += offsets_[w];
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    order_[cursor[owners[i]]++] = static_cast<std::uint32_t>(i);
}

std::shared_ptr<const PrunedPlan> PrunedPlanCache::get(
    const stf::FlowImage& image, const Mapping& mapping,
    std::uint32_t num_workers) {
  if (plan_ && serial_ == image.serial() &&
      fingerprint_ == image.fingerprint() &&
      mapping_.identity() == mapping.identity() && workers_ == num_workers)
    return plan_;
  // Evict first: the old plan is released before the new one is built.
  plan_.reset();
  plan_ = std::make_shared<const PrunedPlan>(image, mapping, num_workers);
  ++compiles_;
  serial_ = image.serial();
  fingerprint_ = image.fingerprint();
  mapping_ = mapping;
  workers_ = num_workers;
  return plan_;
}

}  // namespace rio::rt
