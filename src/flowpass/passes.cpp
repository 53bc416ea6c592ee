// The built-in passes. Each is a pure FlowImage -> FlowImage rewrite; see
// pass.hpp for the preservation contract and docs/passes.md for the
// add-a-pass recipe.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flowpass/cost.hpp"
#include "flowpass/pass.hpp"
#include "stf/dependency.hpp"
#include "stf/flow_rewrite.hpp"
#include "support/assert.hpp"

namespace rio::flowpass {
namespace {

std::uint64_t cost_of(const stf::FlowImage& image, std::size_t i) {
  const std::uint64_t c = image.cost(i);
  return c > 0 ? c : 1;
}

bool has_reduction(const stf::FlowImage& image, std::size_t i) {
  for (const stf::Access* a = image.acc_begin(i); a != image.acc_end(i); ++a)
    if (stf::is_reduction(a->mode)) return true;
  return false;
}

/// Fills the shared before/after metrics. `before` selects which side.
void measure(PassReport& report, const stf::FlowImage& image,
             const PassOptions& opts, bool before) {
  const stf::DependencyGraph g{image};
  const rt::Mapping base = rt::mapping::round_robin(
      opts.workers > 0 ? opts.workers : 1);
  if (before) {
    report.tasks_before = image.size();
    report.edges_before = g.num_edges();
    report.critical_path_before = cost::critical_path(image);
    report.balance_before = cost::balance(image, base, opts.workers);
  } else {
    report.tasks_after = image.size();
    report.edges_after = g.num_edges();
    report.critical_path_after = cost::critical_path(image);
    report.balance_after = cost::balance(image, base, opts.workers);
  }
}

/// Clone without content changes — for passes whose product is a placement,
/// not a rewrite (partition, map). Same fingerprint as the input, by design.
stf::FlowImage clone(const stf::FlowImage& image) {
  return stf::FlowRewriter(image).compile();
}

/// Greedy balanced k-way owners with predecessor affinity: each task (in id
/// order) goes to the worker minimizing load minus the cost of its
/// predecessors already placed there. Deterministic; shared by the
/// partition and map passes.
std::vector<stf::WorkerId> greedy_owners(const stf::FlowImage& image,
                                         const stf::DependencyGraph& g,
                                         std::uint32_t workers) {
  const std::size_t n = image.size();
  std::vector<stf::WorkerId> owners(n, 0);
  std::vector<std::int64_t> load(workers, 0);
  std::vector<std::int64_t> aff(workers, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(aff.begin(), aff.end(), 0);
    for (const stf::TaskId p : g.predecessors(i)) {
      aff[owners[p]] += static_cast<std::int64_t>(cost_of(image, p));
    }
    stf::WorkerId best = 0;
    std::int64_t best_score = load[0] - aff[0];
    for (stf::WorkerId w = 1; w < workers; ++w) {
      const std::int64_t score = load[w] - aff[w];
      if (score < best_score) {
        best = w;
        best_score = score;
      }
    }
    owners[i] = best;
    load[best] += static_cast<std::int64_t>(cost_of(image, i));
  }
  return owners;
}

/// Earliest-finish-time list schedule over the exact DAG: tasks in id order
/// (a topological order), each to the worker where it can start soonest.
std::vector<stf::WorkerId> eft_owners(const stf::FlowImage& image,
                                      const stf::DependencyGraph& g,
                                      std::uint32_t workers) {
  const std::size_t n = image.size();
  std::vector<stf::WorkerId> owners(n, 0);
  std::vector<std::uint64_t> avail(workers, 0);
  std::vector<std::uint64_t> finish(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t ready = 0;
    for (const stf::TaskId p : g.predecessors(i))
      ready = std::max(ready, finish[p]);
    stf::WorkerId best = 0;
    std::uint64_t best_start = std::max(avail[0], ready);
    for (stf::WorkerId w = 1; w < workers; ++w) {
      const std::uint64_t start = std::max(avail[w], ready);
      if (start < best_start) {
        best = w;
        best_start = start;
      }
    }
    owners[i] = best;
    finish[i] = best_start + cost_of(image, i);
    avail[best] = finish[i];
  }
  return owners;
}

// ---------------------------------------------------------------------------
// fuse: collapse chains of tiny tasks into one composite body.
//
// A chain is fusable when every interior link is exclusive — succ(prev) ==
// {cur} and pred(cur) == {prev} in the exact conflict DAG — and every
// member's cost is below the threshold. Exclusivity over the conflict DAG is
// what makes hoisting later members up to the head's position safe: any task
// between two members that touched a member's data would appear as an extra
// pred/succ and break the chain, and everything else commutes (Bernstein).
// Tasks with reduction accesses never fuse: a composite would change which
// accesses form a commuting run.
// ---------------------------------------------------------------------------
class FusePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fuse";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "collapse chains of tiny tasks into composite bodies";
  }

  [[nodiscard]] stf::FlowImage run(const stf::FlowImage& in,
                                   const PassOptions& opts,
                                   PassReport& report) const override {
    measure(report, in, opts, /*before=*/true);
    const std::size_t n = in.size();
    const stf::DependencyGraph g{in};

    // Group discovery: walk tasks in id order, greedily extending a chain
    // from each still-free tiny task.
    std::vector<bool> grouped(n, false);
    std::vector<std::vector<std::size_t>> groups;
    const std::size_t max_group =
        opts.fuse_max_group > 1 ? opts.fuse_max_group : 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (grouped[i] || in.cost(i) >= opts.fuse_threshold ||
          has_reduction(in, i)) {
        continue;
      }
      std::vector<std::size_t> chain{i};
      std::size_t cur = i;
      while (chain.size() < max_group) {
        const auto& succs = g.successors(cur);
        if (succs.size() != 1) break;
        const std::size_t next = succs[0];
        if (g.predecessors(next).size() != 1) break;
        if (grouped[next] || in.cost(next) >= opts.fuse_threshold ||
            has_reduction(in, next)) {
          break;
        }
        chain.push_back(next);
        cur = next;
      }
      if (chain.size() < 2) continue;
      for (const std::size_t m : chain) grouped[m] = true;
      groups.push_back(std::move(chain));
    }

    stf::FlowRewriter rw(in);
    std::vector<stf::Task>& src = rw.tasks();
    std::vector<std::size_t> leader(n, n);  // task -> its group, else n
    for (std::size_t k = 0; k < groups.size(); ++k)
      for (const std::size_t m : groups[k]) leader[m] = k;

    std::vector<stf::Task> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (leader[i] == n) {
        out.push_back(std::move(src[i]));
        continue;
      }
      // Emit the composite at the head's position; later members vanish.
      if (groups[leader[i]].front() != i) continue;
      out.push_back(make_composite(src, groups[leader[i]]));
    }
    rw.tasks() = std::move(out);

    report.detail = "fused " + std::to_string(n - rw.tasks().size() +
                                              groups.size()) +
                    " tasks into " + std::to_string(groups.size()) +
                    " composites (threshold " +
                    std::to_string(opts.fuse_threshold) + ")";
    stf::FlowImage result = std::move(rw).compile();
    measure(report, result, opts, /*before=*/false);
    return result;
  }

 private:
  /// One task that runs every member in chain order. Each member executes
  /// against its pristine descriptor (original id + access list), so
  /// id-sensitive bodies and the debug access checks behave exactly as in
  /// the source flow. The composite's access list is the mode-join union of
  /// the members' — a safe over-approximation (it can only ADD ordering).
  static stf::Task make_composite(const std::vector<stf::Task>& src,
                                  const std::vector<std::size_t>& chain) {
    auto members = std::make_shared<std::vector<stf::Task>>();
    members->reserve(chain.size());
    for (const std::size_t m : chain) members->push_back(src[m]);

    stf::Task t;
    t.id = members->front().id;
    t.priority = members->front().priority;
    bool any_body = false;
    for (const stf::Task& m : *members) {
      t.cost += m.cost;
      t.priority = std::max(t.priority, m.priority);
      if (m.fn) any_body = true;
      for (const stf::Access& a : m.accesses) {
        bool found = false;
        for (stf::Access& u : t.accesses) {
          if (u.data != a.data) continue;
          const bool r = stf::is_read(u.mode) || stf::is_read(a.mode);
          const bool w = stf::is_write(u.mode) || stf::is_write(a.mode);
          u.mode = r && w ? stf::AccessMode::kReadWrite
                   : w    ? stf::AccessMode::kWrite
                          : stf::AccessMode::kRead;
          found = true;
          break;
        }
        if (!found) t.accesses.push_back(a);
      }
    }
    t.name = "fuse[" + std::to_string(chain.size()) + "]";
    if (!members->front().name.empty()) t.name += ":" + members->front().name;
    if (any_body) {
      std::shared_ptr<const std::vector<stf::Task>> shared = members;
      t.fn = [shared](stf::TaskContext& ctx) {
        for (const stf::Task& m : *shared) {
          if (!m.fn) continue;
          stf::TaskContext sub(m, ctx.registry(), ctx.worker());
          m.fn(sub);
        }
      };
    }
    return t;
  }
};

// ---------------------------------------------------------------------------
// reorder: renumber tasks for data locality while preserving STF order.
//
// Emits a topological linearization of the exact conflict DAG (plus chain
// edges pinning the relative order of same-data reduction runs, so even
// non-commutative bodies behind a reduction access stay deterministic),
// greedily preferring the ready task sharing the most data objects with the
// task just emitted. Every conflict edge is respected, so the permuted flow
// computes byte-identical results.
// ---------------------------------------------------------------------------
class ReorderPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "reorder";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "renumber tasks for data locality, preserving STF order";
  }

  [[nodiscard]] stf::FlowImage run(const stf::FlowImage& in,
                                   const PassOptions& opts,
                                   PassReport& report) const override {
    measure(report, in, opts, /*before=*/true);
    const std::size_t n = in.size();
    const stf::DependencyGraph g{in};

    std::vector<std::size_t> indeg(n, 0);
    std::vector<std::vector<std::size_t>> extra(n);
    for (std::size_t i = 0; i < n; ++i) indeg[i] = g.in_degree(i);
    {
      // Reduction runs commute in the DAG; chain them explicitly so the
      // rewrite keeps their flow order.
      std::vector<std::size_t> last_red(in.num_data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        for (const stf::Access* a = in.acc_begin(i); a != in.acc_end(i); ++a) {
          if (!stf::is_reduction(a->mode)) continue;
          if (last_red[a->data] != n) {
            extra[last_red[a->data]].push_back(i);
            ++indeg[i];
          }
          last_red[a->data] = i;
        }
      }
    }

    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i)
      if (indeg[i] == 0) ready.push_back(i);

    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<stf::DataId> last_data;
    while (!ready.empty()) {
      std::size_t best_pos = 0;
      std::size_t best_aff = affinity(in, ready[0], last_data);
      for (std::size_t k = 1; k < ready.size(); ++k) {
        const std::size_t aff = affinity(in, ready[k], last_data);
        if (aff > best_aff ||
            (aff == best_aff && ready[k] < ready[best_pos])) {
          best_pos = k;
          best_aff = aff;
        }
      }
      const std::size_t sel = ready[best_pos];
      ready[best_pos] = ready.back();
      ready.pop_back();
      order.push_back(sel);
      last_data.clear();
      for (const stf::Access* a = in.acc_begin(sel); a != in.acc_end(sel);
           ++a) {
        last_data.push_back(a->data);
      }
      for (const stf::TaskId s : g.successors(sel))
        if (--indeg[s] == 0) ready.push_back(s);
      for (const std::size_t s : extra[sel])
        if (--indeg[s] == 0) ready.push_back(s);
    }
    RIO_ASSERT_MSG(order.size() == n, "reorder lost tasks (cyclic DAG?)");

    std::size_t moved = 0;
    for (std::size_t k = 0; k < n; ++k)
      if (order[k] != k) ++moved;

    stf::FlowRewriter rw(in);
    std::vector<stf::Task> out;
    out.reserve(n);
    for (const std::size_t o : order) out.push_back(std::move(rw.tasks()[o]));
    rw.tasks() = std::move(out);

    report.detail =
        "moved " + std::to_string(moved) + "/" + std::to_string(n) + " tasks";
    stf::FlowImage result = std::move(rw).compile();
    measure(report, result, opts, /*before=*/false);
    return result;
  }

 private:
  static std::size_t affinity(const stf::FlowImage& in, std::size_t i,
                              const std::vector<stf::DataId>& last_data) {
    std::size_t shared = 0;
    for (const stf::Access* a = in.acc_begin(i); a != in.acc_end(i); ++a) {
      for (const stf::DataId d : last_data) {
        if (a->data == d) {
          ++shared;
          break;
        }
      }
    }
    return shared;
  }
};

// ---------------------------------------------------------------------------
// partition: split the flow into per-worker shards + hybrid:: phases.
//
// Product, not rewrite: the image passes through unchanged; the report
// carries an owner-table Mapping (greedy balanced k-way with predecessor
// affinity) and a contiguous cost-balanced phase split consumable by the
// hybrid engine.
// ---------------------------------------------------------------------------
class PartitionPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "partition";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "split the flow into per-worker shards and hybrid phases";
  }

  [[nodiscard]] stf::FlowImage run(const stf::FlowImage& in,
                                   const PassOptions& opts,
                                   PassReport& report) const override {
    measure(report, in, opts, /*before=*/true);
    const std::size_t n = in.size();
    const std::uint32_t workers = opts.workers > 0 ? opts.workers : 1;
    if (n > 0) {
      const stf::DependencyGraph g{in};
      std::vector<stf::WorkerId> owners = greedy_owners(in, g, workers);
      report.mapping =
          rt::mapping::table(owners, "partition/" + std::to_string(workers));

      // Contiguous cost-balanced phases: cut after every total/P share.
      const std::size_t num_phases =
          std::min<std::size_t>(workers, n) > 0
              ? std::min<std::size_t>(workers, n)
              : 1;
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < n; ++i) total += cost_of(in, i);
      std::vector<std::size_t> phase_of(n, 0);
      std::uint64_t acc = 0;
      std::size_t start = 0;
      std::size_t k = 1;
      for (std::size_t i = 0; i < n; ++i) {
        acc += cost_of(in, i);
        const bool last = i + 1 == n;
        if (last || (k < num_phases && acc * num_phases >= total * k)) {
          hybrid::Phase ph;
          ph.kind = hybrid::Phase::Kind::kStatic;
          ph.first = start;
          ph.count = i + 1 - start;
          ph.mapping = report.mapping;
          report.phases.push_back(ph);
          for (std::size_t j = start; j <= i; ++j) phase_of[j] = k - 1;
          start = i + 1;
          ++k;
        }
      }
      std::size_t cross = 0;
      for (std::size_t i = 0; i < n; ++i)
        for (const stf::TaskId s : g.successors(i))
          if (phase_of[i] != phase_of[s]) ++cross;
      report.detail = std::to_string(workers) + " shards, " +
                      std::to_string(report.phases.size()) + " phases, " +
                      std::to_string(cross) + " cross-phase deps";
    } else {
      report.detail = "empty flow";
    }
    stf::FlowImage result = clone(in);
    measure(report, result, opts, /*before=*/false);
    return result;
  }
};

// ---------------------------------------------------------------------------
// map: static mapping search scored by cost model or simulation.
//
// Candidates: round-robin (the baseline every engine defaults to), block,
// the partition pass's affinity owners, and an earliest-finish-time list
// schedule. Scored by the static max(critical path, max load) estimate, or
// — with PassOptions::tune — by the sim-rio virtual makespan. The baseline
// is always in the candidate set, so the winner's score never exceeds it.
// ---------------------------------------------------------------------------
class MapPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "map";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "search static mappings with cost-model / simulated scoring";
  }

  [[nodiscard]] stf::FlowImage run(const stf::FlowImage& in,
                                   const PassOptions& opts,
                                   PassReport& report) const override {
    measure(report, in, opts, /*before=*/true);
    const std::size_t n = in.size();
    const std::uint32_t workers = opts.workers > 0 ? opts.workers : 1;
    if (n > 0) {
      const stf::DependencyGraph g{in};
      std::vector<std::pair<std::string, rt::Mapping>> candidates;
      candidates.emplace_back("round-robin",
                              rt::mapping::round_robin(workers));
      candidates.emplace_back("block", rt::mapping::block(n, workers));
      candidates.emplace_back(
          "partition",
          rt::mapping::table(greedy_owners(in, g, workers), "map-partition"));
      candidates.emplace_back(
          "eft", rt::mapping::table(eft_owners(in, g, workers), "map-eft"));

      std::size_t best = 0;
      std::uint64_t best_score = 0;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const std::uint64_t score =
            opts.tune
                ? cost::simulated_makespan(in, candidates[c].second, opts)
                : cost::static_estimate(in, candidates[c].second, workers);
        report.tuning.push_back({candidates[c].first, score, false});
        if (c == 0 || score < best_score) {
          best = c;
          best_score = score;
        }
      }
      report.tuning[best].chosen = true;
      report.mapping = candidates[best].second;
      report.detail = "picked " + candidates[best].first + " (score " +
                      std::to_string(best_score) + " vs round-robin " +
                      std::to_string(report.tuning[0].score) + ", " +
                      (opts.tune ? "simulated" : "static") + ")";
    } else {
      report.detail = "empty flow";
    }
    stf::FlowImage result = clone(in);
    measure(report, result, opts, /*before=*/false);
    return result;
  }
};

}  // namespace

namespace detail {

void register_builtins(Registry& reg) {
  reg.add(std::make_unique<FusePass>());
  reg.add(std::make_unique<ReorderPass>());
  reg.add(std::make_unique<PartitionPass>());
  reg.add(std::make_unique<MapPass>());
}

}  // namespace detail
}  // namespace rio::flowpass
