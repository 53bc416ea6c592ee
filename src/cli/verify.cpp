// `rioflow verify`: model-check the engine's REAL synchronization code on
// a small flow (mc::impl). Explores every interleaving of the protocol's
// shared-word operations (DPOR-reduced unless --naive) and checks STFSpec
// refinement, the in-order window invariants, deadlock freedom and — under
// --policy block — lost-wakeup freedom. Violations come with a replayable
// schedule witness.
#include <algorithm>

#include "cli/common.hpp"
#include "modelcheck/impl.hpp"
#include "stf/stf.hpp"
#include "support/json.hpp"

namespace rio::cli {
namespace {

/// The model checker's engine for a canonical registry name.
mc::impl::EngineKind checked_engine(const std::string& name) {
  using mc::impl::EngineKind;
  std::vector<std::string> names;
  for (EngineKind k :
       {EngineKind::kRio, EngineKind::kRioPruned, EngineKind::kCoor}) {
    if (name == mc::impl::to_string(k)) return k;
    names.emplace_back(mc::impl::to_string(k));
  }
  throw Fail{1, "verify supports engines " + join(names, "|") + ", not '" +
                    name + "'"};
}

const char* yes_no(bool b) { return b ? "true" : "false"; }

}  // namespace

int run_verify(const Options& o, std::ostream& out) {
  const std::string engine(find_engine(o.engine).name());
  mc::impl::Options mo;
  mo.engine = checked_engine(engine);

  // The state space is exponential in flow size; default to a flow the
  // checker can exhaust instead of the execution-sized defaults.
  Options wo = o;
  if (!wo.workload_given) wo.workload = "chain";
  if (o.quick) {
    wo.tasks = std::min<std::uint64_t>(wo.tasks, 6);
    wo.tiles = std::min<std::uint32_t>(wo.tiles, 2);
    wo.width = std::min<std::uint32_t>(wo.width, 3);
    wo.steps = std::min<std::uint32_t>(wo.steps, 2);
    wo.workers = std::min<std::uint32_t>(wo.workers, 2);
    mo.max_interleavings = 2'000;
  } else if (wo.workload == "chain" || wo.workload == "independent" ||
             wo.workload == "random") {
    // Synthetic workloads keep their execution-sized default (4096); snap
    // it to the checker's ceiling rather than rejecting the default.
    wo.tasks = std::min<std::uint64_t>(wo.tasks, 16);
  }
  const workloads::Workload wl =
      build_workload(wo, workloads::BodyKind::kNone);
  if (wl.flow.num_tasks() > 64)
    throw Fail{1, "verify explores interleavings exhaustively and handles "
                  "at most 64 tasks (" +
                      std::to_string(wl.flow.num_tasks()) +
                      " generated; shrink with --tasks/--tiles or --quick)"};
  if (wo.workers > 4) throw Fail{1, "verify handles at most 4 workers"};
  for (const stf::Task& t : wl.flow.tasks())
    for (const stf::Access& a : t.accesses)
      if (stf::is_reduction(a.mode))
        throw Fail{1, "verify does not support reduction accesses (task " +
                          std::to_string(t.id) + ")"};

  const rt::Mapping mapping = make_mapping(wo, wl);
  mo.policy = parse_policy(wo.policy);
  // coor's fifo queue is the wait-free ring: check the real ring code.
  mo.queue = mc::impl::CoorQueue::kRing;
  mo.workers = wo.workers;
  mo.dpor = !o.naive;
  mo.max_preemptions = o.max_preemptions;
  if (o.recover) {
    if (wo.workers < 2)
      throw Fail{1, "verify --recover needs --workers >= 2 (one worker "
                    "dies and is evicted)"};
    if (wl.flow.num_tasks() == 0)
      throw Fail{1, "verify --recover needs a non-empty flow"};
    // Mid-flow crash: deepest frontier variety for the phase-1 sweep.
    mo.recover = true;
    mo.crash_task = wl.flow.num_tasks() / 2;
  }

  const mc::impl::Result r = mc::impl::verify(wl.flow, mapping, mo);
  const bool coor = mo.engine == mc::impl::EngineKind::kCoor;

  out << "-- verify: " << wl.name << " on " << engine << " (" << mo.workers
      << " workers, " << o.policy << " policy, "
      << (coor ? "ring queue, " : "")
      << (mo.dpor ? "dpor" : "naive");
  if (mo.max_preemptions >= 0)
    out << ", <=" << mo.max_preemptions << " preemptions";
  out << ") --\n";
  if (mo.recover)
    out << "recovery: worker executing task " << mo.crash_task
        << " dies after its body; phase 1 explores the loss ("
        << r.frontiers << " completion frontiers), phase 2 the resumed "
        << (mo.workers - 1) << "-worker evicted configuration\n";
  out << "interleavings: " << r.explored << " explored, " << r.pruned
      << " pruned, " << r.steps << " scheduling steps, "
      << support::format_duration_ns(r.seconds * 1e9) << "\n";
  if (r.truncated)
    out << "NOTE: exploration truncated (budget reached); the verdict "
           "covers only the explored prefix\n";
  const auto verdict = [](bool held) { return held ? "ok" : "VIOLATED"; };
  out << "refines-stf:      " << verdict(r.refines_stf) << "\n";
  out << "in-order windows: " << verdict(r.in_order) << "\n";
  out << "deadlock-free:    " << verdict(r.deadlock_free) << "\n";
  out << "lost-wakeup-free: " << verdict(r.lost_wakeup_free) << "\n";
  if (!r.ok()) {
    out << "violation [" << r.violation_kind << "]: " << r.violation << "\n";
    out << "witness schedule (" << r.witness.size() << " steps):";
    for (std::uint32_t w : r.witness) out << ' ' << w;
    out << "\n";
    if (coor) out << "(worker " << mo.workers << " is the master)\n";
  }

  write_report(o.json_path, out, [&](std::ostream& f) {
    f << "{\n  \"schema\": \"rio.verify.v1\",\n"
      << "  \"engine\": " << support::json_quote(engine) << ",\n"
      << "  \"workload\": " << support::json_quote(wl.name) << ",\n"
      << "  \"workers\": " << mo.workers << ",\n"
      << "  \"policy\": " << support::json_quote(o.policy) << ",\n"
      << "  \"queue\": " << (coor ? "\"ring\"" : "null") << ",\n"
      << "  \"dpor\": " << yes_no(mo.dpor) << ",\n"
      << "  \"max_preemptions\": " << mo.max_preemptions << ",\n"
      << "  \"recover\": " << yes_no(mo.recover) << ",\n"
      << "  \"crash_task\": "
      << (mo.recover ? std::to_string(mo.crash_task) : "null") << ",\n"
      << "  \"frontiers\": " << r.frontiers << ",\n"
      << "  \"explored\": " << r.explored << ",\n"
      << "  \"pruned\": " << r.pruned << ",\n"
      << "  \"steps\": " << r.steps << ",\n"
      << "  \"truncated\": " << yes_no(r.truncated) << ",\n"
      << "  \"seconds\": " << r.seconds << ",\n"
      << "  \"ok\": " << yes_no(r.ok()) << ",\n"
      << "  \"properties\": {\"refines_stf\": " << yes_no(r.refines_stf)
      << ", \"in_order\": " << yes_no(r.in_order)
      << ", \"deadlock_free\": " << yes_no(r.deadlock_free)
      << ", \"lost_wakeup_free\": " << yes_no(r.lost_wakeup_free) << "},\n";
    if (r.ok()) {
      f << "  \"violation\": null\n";
    } else {
      f << "  \"violation\": {\"kind\": "
        << support::json_quote(r.violation_kind) << ", \"message\": "
        << support::json_quote(r.violation) << ", \"witness\": [";
      for (std::size_t i = 0; i < r.witness.size(); ++i)
        f << (i == 0 ? "" : ", ") << r.witness[i];
      f << "]}\n";
    }
    f << "}\n";
  });
  return r.ok() ? 0 : 3;
}

}  // namespace rio::cli
