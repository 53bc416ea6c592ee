// Fine-grained software pipeline: 1-D heat diffusion through RIO's
// STREAMING mode.
//
// This example exercises the paper's actual decentralized unrolling
// (Section 3.3, Figure 5): no task flow is ever materialized — every
// worker runs the program itself and executes only the chunks a block
// mapping assigns to it, synchronizing with neighbours through the
// data-object protocol. The per-time-step tasks are deliberately tiny:
// exactly the granularity regime where a master-based runtime drowns.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "rio/rio.hpp"
#include "stf/stf.hpp"
#include "support/clock.hpp"

using namespace rio;

namespace {

constexpr std::uint32_t kChunks = 32;
constexpr std::uint32_t kChunkLen = 64;
constexpr std::uint32_t kSteps = 200;
constexpr std::uint32_t kWorkers = 4;

// Sequential reference of the same 3-point update.
void reference(std::vector<double>& u) {
  std::vector<double> next(u.size());
  for (std::uint32_t t = 0; t < kSteps; ++t) {
    const std::size_t n = u.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double l = i > 0 ? u[i - 1] : u[0];
      const double r = i + 1 < n ? u[i + 1] : u[n - 1];
      next[i] = 0.25 * l + 0.5 * u[i] + 0.25 * r;
    }
    u.swap(next);
  }
}

}  // namespace

int main() {
  const std::size_t total = static_cast<std::size_t>(kChunks) * kChunkLen;

  // Initial condition: a hot spot in the middle.
  std::vector<double> init(total, 0.0);
  for (std::size_t i = total / 2 - 8; i < total / 2 + 8; ++i) init[i] = 100.0;

  // --- streaming RIO execution -------------------------------------------
  // Data objects registered once, up front, in a standalone registry.
  stf::DataRegistry registry;
  std::vector<double> buf_a = init, buf_b(total, 0.0);
  std::vector<stf::DataHandle<double>> h[2];
  std::vector<double>* store[2] = {&buf_a, &buf_b};
  for (int p = 0; p < 2; ++p)
    for (std::uint32_t c = 0; c < kChunks; ++c)
      h[p].push_back(registry.attach<double>(
          "u" + std::to_string(p) + "[" + std::to_string(c) + "]",
          store[p]->data() + static_cast<std::size_t>(c) * kChunkLen,
          kChunkLen));

  // The deterministic program every worker unrolls (Figure 5).
  stf::ProgramFn program = [&](stf::SubmitSink& sink) {
    for (std::uint32_t t = 0; t < kSteps; ++t) {
      const auto& cur = h[t % 2];
      const auto& nxt = h[(t + 1) % 2];
      for (std::uint32_t c = 0; c < kChunks; ++c) {
        const bool left = c > 0, right = c + 1 < kChunks;
        const auto hl = left ? cur[c - 1] : cur[c];
        const auto hm = cur[c];
        const auto hr = right ? cur[c + 1] : cur[c];
        const auto hn = nxt[c];
        stf::AccessList acc;
        if (left) acc.push_back(stf::read(hl));
        acc.push_back(stf::read(hm));
        if (right) acc.push_back(stf::read(hr));
        acc.push_back(stf::write(hn));
        sink.submit(
            [hl, hm, hr, hn, left, right](stf::TaskContext& ctx) {
              const double* lo = ctx.get(hl, stf::AccessMode::kRead);
              const double* mi = ctx.get(hm, stf::AccessMode::kRead);
              const double* ro = ctx.get(hr, stf::AccessMode::kRead);
              double* out = ctx.get(hn);
              for (std::uint32_t x = 0; x < kChunkLen; ++x) {
                const double lv = x > 0 ? mi[x - 1]
                                  : left ? lo[kChunkLen - 1]
                                         : mi[0];
                const double rv = x + 1 < kChunkLen ? mi[x + 1]
                                  : right           ? ro[0]
                                                    : mi[kChunkLen - 1];
                out[x] = 0.25 * lv + 0.5 * mi[x] + 0.25 * rv;
              }
            },
            std::move(acc), 4 * kChunkLen);
      }
    }
  };

  // Block mapping: task id -> chunk id -> contiguous worker blocks, so a
  // worker only ever waits on its two neighbours.
  auto mapping = rt::mapping::custom("block-by-chunk", [](stf::TaskId t) {
    const auto chunk = static_cast<std::uint32_t>(t % kChunks);
    return static_cast<stf::WorkerId>(
        static_cast<std::uint64_t>(chunk) * kWorkers / kChunks);
  });

  rt::Runtime runtime(engine::Launch{.workers = kWorkers});
  support::Stopwatch sw;
  const auto stats = runtime.run_program(registry, program, mapping);
  const double ms = sw.elapsed_s() * 1e3;

  // --- verify against the sequential reference ---------------------------
  std::vector<double> ref = init;
  reference(ref);
  const std::vector<double>& result = (kSteps % 2 == 0) ? buf_a : buf_b;
  double err = 0.0;
  for (std::size_t i = 0; i < total; ++i)
    err = std::max(err, std::fabs(result[i] - ref[i]));

  std::cout << "streamed " << kSteps * kChunks << " tasks ("
            << stats.tasks_executed() << " executed across " << kWorkers
            << " workers, nothing materialized) in " << ms << " ms\n"
            << "max |pipeline - reference| = " << err << "\n";
  if (err != 0.0) {
    std::cerr << "MISMATCH\n";
    return 1;
  }
  std::cout << "bitwise identical to the sequential sweep — OK\n";
  return 0;
}
