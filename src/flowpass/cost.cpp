#include "flowpass/cost.hpp"

#include <algorithm>
#include <vector>

#include "sim/simulate.hpp"
#include "stf/dependency.hpp"

namespace rio::flowpass::cost {
namespace {

std::uint64_t cost_of(const stf::FlowImage& image, std::size_t i) {
  const std::uint64_t c = image.cost(i);
  return c > 0 ? c : 1;
}

}  // namespace

std::uint64_t critical_path(const stf::FlowImage& image) {
  const std::size_t n = image.size();
  if (n == 0) return 0;
  const stf::DependencyGraph g{image};
  // Task ids are a topological order, so one forward sweep suffices.
  std::vector<std::uint64_t> finish(n, 0);
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t start = 0;
    for (const stf::TaskId p : g.predecessors(i)) {
      start = std::max(start, finish[p]);
    }
    finish[i] = start + cost_of(image, i);
    best = std::max(best, finish[i]);
  }
  return best;
}

double balance(const stf::FlowImage& image, const rt::Mapping& mapping,
               std::uint32_t workers) {
  const std::size_t n = image.size();
  if (n == 0 || workers == 0 || !mapping.valid()) return 0.0;
  std::vector<std::uint64_t> load(workers, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const stf::WorkerId w = mapping(i);
    const std::uint64_t c = cost_of(image, i);
    if (w < workers) load[w] += c;
    total += c;
  }
  const std::uint64_t max_load = *std::max_element(load.begin(), load.end());
  const double mean = static_cast<double>(total) / workers;
  return mean > 0.0 ? static_cast<double>(max_load) / mean : 0.0;
}

std::uint64_t static_estimate(const stf::FlowImage& image,
                              const rt::Mapping& mapping,
                              std::uint32_t workers) {
  const std::size_t n = image.size();
  if (n == 0 || workers == 0) return 0;
  std::vector<std::uint64_t> load(workers, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const stf::WorkerId w = mapping(i);
    if (w < workers) load[w] += cost_of(image, i);
  }
  const std::uint64_t max_load = *std::max_element(load.begin(), load.end());
  return std::max(max_load, critical_path(image));
}

std::uint64_t simulated_makespan(const stf::FlowImage& image,
                                 const rt::Mapping& mapping,
                                 const PassOptions& opts) {
  sim::DecentralizedParams params = opts.sim_params;
  params.workers = opts.workers;
  return sim::simulate_decentralized(image, mapping, params).makespan;
}

}  // namespace rio::flowpass::cost
