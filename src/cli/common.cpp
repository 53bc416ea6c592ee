#include "cli/common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "engine/supervisor.hpp"
#include "metrics/efficiency.hpp"
#include "stf/stf.hpp"

namespace rio::cli {
namespace {

namespace fx = analysis::fixtures;

template <class T>
using Choices = std::initializer_list<std::pair<const char*, T>>;

/// The value named `value` among `choices`; an unknown name fails with the
/// list of choices.
template <class T>
T pick(const std::string& what, const std::string& value,
       Choices<T> choices) {
  std::vector<std::string> names;
  for (const auto& [name, v] : choices) {
    if (value == name) return v;
    names.emplace_back(name);
  }
  throw Fail{1, "unknown " + what + " '" + value + "' (" + join(names, "|") +
                    ")"};
}

fx::PhaseFixture flow_only(stf::TaskFlow flow) { return {std::move(flow), {}}; }

/// Seeded-bad flows from src/analysis (workload lintfix:<name>). Each
/// carries exactly one hazard, so `rioflow lint` can demonstrate (and tests
/// can assert) the finding; the phase fixtures carry their partition too.
constexpr Choices<fx::PhaseFixture (*)()> kFixtures = {
    {"uninit-read", [] { return flow_only(fx::bad_uninit_read()); }},
    {"dead-write", [] { return flow_only(fx::bad_dead_write()); }},
    {"unused-handle", [] { return flow_only(fx::bad_unused_handle()); }},
    {"redundant-edge", [] { return flow_only(fx::bad_redundant_edge()); }},
    {"race", [] { return flow_only(fx::injected_race().flow); }},
    {"phase-mapping", fx::bad_phase_mapping},
    {"empty-phase", fx::bad_empty_phase},
    {"cross-phase-dep", fx::cross_phase_dep},
    {"tiny-tasks", [] { return flow_only(fx::bad_tiny_tasks()); }},
};

}  // namespace

const engine::Backend& find_engine(const std::string& name) {
  std::string error;
  const engine::Backend* backend =
      engine::Registry::instance().find_or_error(name, error);
  if (backend == nullptr) throw Fail{1, error};
  return *backend;
}

workloads::BodyKind body_for(const engine::Backend& backend) {
  return backend.caps().virtual_time ? workloads::BodyKind::kNone
                                     : workloads::BodyKind::kCounter;
}

workloads::Workload build_workload(const Options& o,
                                   workloads::BodyKind body) {
  namespace wk = workloads;
  // Every generator shares the cost, body and owner-table knobs.
  const auto knobs = [&](auto spec) {
    spec.task_cost = o.task_size;
    spec.body = body;
    spec.num_workers = o.workers;
    return spec;
  };
  const std::string& w = o.workload;
  if (w == "independent")
    return wk::make_independent(
        knobs(wk::IndependentSpec{.num_tasks = o.tasks}));
  if (w == "random")
    return wk::make_random_deps(
        knobs(wk::RandomDepsSpec{.num_tasks = o.tasks, .seed = o.seed}));
  if (w == "chain")
    return wk::make_chain(knobs(wk::ChainSpec{.num_tasks = o.tasks}));
  if (w == "gemm")
    return wk::make_gemm_dag(knobs(wk::GemmDagSpec{.tiles = o.tiles}));
  if (w == "lu")
    return wk::make_lu_dag(
        knobs(wk::LuDagSpec{.row_tiles = o.tiles, .col_tiles = o.tiles}));
  if (w == "cholesky")
    return wk::make_cholesky_dag(knobs(wk::CholeskyDagSpec{.tiles = o.tiles}));
  if (w == "stencil")
    return wk::make_stencil_dag(
        knobs(wk::StencilSpec{.chunks = o.width, .steps = o.steps}));
  if (w.rfind("taskbench:", 0) == 0) {
    const std::string name = w.substr(10);
    for (auto p : wk::kAllTaskBenchPatterns)
      if (name == wk::to_string(p))
        return wk::make_taskbench(knobs(wk::TaskBenchSpec{
            .pattern = p, .width = o.width, .steps = o.steps}));
    throw Fail{1, "unknown taskbench pattern '" + name + "'"};
  }
  if (w.rfind("lintfix:", 0) == 0) {
    wk::Workload out;
    out.flow = pick("lint fixture", w.substr(8), kFixtures)().flow;
    out.name = w;
    return out;
  }
  throw Fail{1, "unknown workload '" + w + "'"};
}

std::vector<analysis::LintPhase> fixture_phases(const std::string& workload) {
  if (workload.rfind("lintfix:", 0) != 0) return {};
  return pick("lint fixture", workload.substr(8), kFixtures)().phases;
}

rt::Mapping make_mapping(const Options& o, const workloads::Workload& wl) {
  if (o.mapping == "rr") return rt::mapping::round_robin(o.workers);
  if (o.mapping == "block")
    return rt::mapping::block(wl.flow.num_tasks(), o.workers);
  if (o.mapping == "owner") return wl.mapping(o.workers);
  throw Fail{1, "unknown mapping '" + o.mapping + "' (rr|block|owner)"};
}

support::WaitPolicy parse_policy(const std::string& name) {
  using P = support::WaitPolicy;
  return pick<P>("policy", name,
                 {{"yield", P::kSpinYield}, {"block", P::kBlock}});
}

coor::QueueKind parse_queue(const std::string& name) {
  using Q = coor::QueueKind;
  return pick<Q>("queue", name, {{"locked", Q::kLocked}, {"ring", Q::kRing}});
}

analysis::Severity parse_fail_on(const std::string& name) {
  using S = analysis::Severity;
  return pick<S>("--fail-on", name,
                 {{"error", S::kError}, {"warning", S::kWarning},
                  {"info", S::kInfo}});
}

engine::Launch make_launch(const Options& o, const engine::Backend& backend,
                           workloads::Workload& wl) {
  engine::Launch launch;
  launch.workers = o.workers;
  launch.mapping = make_mapping(o, wl);
  launch.wait_policy = parse_policy(o.policy);
  using S = coor::SchedulerKind;
  launch.scheduler = pick<S>("scheduler", o.scheduler,
                             {{"fifo", S::kFifo}, {"lifo", S::kLifo},
                              {"locality", S::kLocality},
                              {"priority", S::kPriority}});
  launch.queue = parse_queue(o.queue);
  // A priority scheduler needs priorities: the dependency graph's bottom
  // levels, snapshotted by the image compile that follows.
  if (backend.caps().uses_scheduler &&
      launch.scheduler == coor::SchedulerKind::kPriority) {
    const auto levels = stf::DependencyGraph(wl.flow).bottom_levels(wl.flow);
    for (stf::TaskId t = 0; t < wl.flow.num_tasks(); ++t)
      wl.flow.set_priority(t, static_cast<std::int32_t>(levels[t]));
  }
  return launch;
}

engine::Outcome execute(const engine::Backend& backend,
                        const stf::FlowImage& image,
                        const engine::Launch& launch, bool supervised) {
  return supervised ? engine::run_supervised(backend, image, launch)
                    : backend.run(image, launch);
}

Options shrink_if_quick(Options o) {
  if (o.quick) {
    o.tasks = std::min<std::uint64_t>(o.tasks, 256);
    o.tiles = std::min<std::uint32_t>(o.tiles, 4);
    o.task_size = std::min<std::uint64_t>(o.task_size, 200);
  }
  return o;
}

DataImage data_image(const stf::DataRegistry& reg) {
  DataImage img(reg.size());
  for (std::size_t d = 0; d < reg.size(); ++d) {
    const auto id = static_cast<stf::DataId>(d);
    img[d].resize(reg.bytes(id));
    if (!img[d].empty()) std::memcpy(img[d].data(), reg.raw(id), img[d].size());
  }
  return img;
}

DataImage oracle(const Options& o) {
  workloads::Workload wl = build_workload(o, workloads::BodyKind::kFold);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  stf::SequentialExecutor{}.run(image);
  return data_image(wl.flow.registry());
}

void write_report(const std::string& path, std::ostream& out,
                  const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) throw Fail{2, "cannot write " + path};
  write(f);
  out << "wrote " << path << "\n";
}

void print_table(const support::Table& table, bool csv, std::ostream& out) {
  if (csv)
    table.print_csv(out);
  else
    table.print(out);
}

std::string printf_double(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

void print_decompose(const support::RunStats& stats, std::ostream& out) {
  const auto e = metrics::decompose_synthetic(stats.cumulative());
  out << "e_p = " << e.e_p << ", e_r = " << e.e_r
      << ", e_p*e_r = " << e.e_p * e.e_r << "\n";
}

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string s;
  for (const std::string& item : items) {
    if (item.empty()) continue;
    if (!s.empty()) s += sep;
    s += item;
  }
  return s;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  for (std::string part; std::getline(in, part, ',');)
    if (!part.empty()) parts.push_back(part);
  return parts;
}

void parse_retry_tasks(const std::string& spec, support::RetryPolicy& retry) {
  for (const std::string& part : split_csv(spec)) {
    const auto eq = part.find('=');
    std::uint64_t task = 0;
    std::uint32_t attempts = 0;
    if (eq == std::string::npos || !parse_number(part.substr(0, eq), task) ||
        !parse_number(part.substr(eq + 1), attempts) || attempts == 0)
      throw Fail{1, "bad --retry-tasks entry '" + part +
                        "' (want id=N, N >= 1)"};
    retry.task_attempts.emplace_back(task, attempts);
  }
}

}  // namespace rio::cli
