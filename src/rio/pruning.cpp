#include "rio/pruning.hpp"

#include "support/assert.hpp"

namespace rio::rt {
namespace {

/// Shared scan state: what a fully-unrolling worker's local replica would
/// contain just before each task.
struct ScanState {
  stf::TaskId last_writer = kNoWrite;
  std::uint64_t reads_since_write = 0;
};

}  // namespace

PrunedPlan::PrunedPlan(const stf::FlowImage& image, const Mapping& mapping,
                       std::uint32_t num_workers) {
  RIO_ASSERT(mapping.valid() && num_workers > 0);
  per_worker_.resize(num_workers);

  // The same scan state the dependency analyzer uses, but instead of
  // emitting edges we snapshot the (last_writer, reads_since) pair into the
  // owner's plan.
  std::vector<ScanState> data(image.num_data());
  const stf::FlowImage::Span* spans = image.spans();
  const stf::Access* acc = image.accesses();
  const std::size_t n = image.size();
  const stf::TaskId first = image.first_id();

  for (std::size_t i = 0; i < n; ++i) {
    const stf::TaskId id = first + i;
    const stf::WorkerId owner = mapping(id);
    RIO_ASSERT_MSG(owner < num_workers, "mapping produced out-of-range worker");

    PrunedTask pt;
    pt.id = id;
    const stf::FlowImage::Span s = spans[i];
    for (std::uint32_t k = s.begin; k != s.end; ++k) {
      const stf::Access& a = acc[k];
      const ScanState& st = data[a.data];
      PrunedAccess pa;
      pa.data = a.data;
      pa.mode = a.mode;
      pa.expected_writer = st.last_writer;
      pa.expected_reads = st.reads_since_write;
      pt.accesses.push_back(pa);
    }
    per_worker_[owner].push_back(std::move(pt));
    ++total_;

    for (std::uint32_t k = s.begin; k != s.end; ++k) {
      const stf::Access& a = acc[k];
      ScanState& st = data[a.data];
      if (is_write(a.mode)) {
        st.last_writer = id;
        st.reads_since_write = 0;
      } else {
        st.reads_since_write += 1;
      }
    }
  }
}

std::shared_ptr<const PrunedPlan> PrunedPlanCache::get(
    const stf::FlowImage& image, const Mapping& mapping,
    std::uint32_t num_workers) {
  const Key key{image.serial(), image.fingerprint(), mapping.identity(),
                num_workers};
  for (const Entry& e : entries_) {
    if (e.key.serial == key.serial && e.key.fingerprint == key.fingerprint &&
        e.key.mapping == key.mapping && e.key.workers == key.workers)
      return e.plan;
  }
  auto plan = std::make_shared<const PrunedPlan>(image, mapping, num_workers);
  ++compiles_;
  entries_.push_back({key, plan});
  return plan;
}

}  // namespace rio::rt
