// Tests for the causal profiler (docs/observability.md, "Causal
// profiling"): wait-cause attribution on the hot-path event schema, the
// obs::causal executed-DAG analyzer, sampled recording, the Perfetto dep
// flow events, rioflow blame / obs-diff, and the json_read parser.
//
// The load-bearing identities, in the same EXPECT_EQ-not-near discipline
// as the obs reconciliation suite:
//   * sim-rio on a dependency-bound chain: crit_path == makespan exactly
//     (the virtual clock makes the walk closed-form);
//   * every workload: crit_path <= makespan, structurally;
//   * rio: the analyzer's wait_total equals the recorder's acquire_wait
//     phase total, and every stalled acquire carries a data cause, so the
//     per-handle blame sums to the same number;
//   * sampling keeps recorded + dropped == pushed exact at any stride.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "engine/registry.hpp"
#include "engine/supervisor.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "rio/rio.hpp"
#include "sim/sim.hpp"
#include "support/fault.hpp"
#include "support/json_read.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;

constexpr std::size_t kWaitIdx =
    static_cast<std::size_t>(obs::Phase::kAcquireWait);

workloads::Workload chain(std::uint64_t tasks, std::uint64_t cost,
                          std::uint32_t workers, workloads::BodyKind body) {
  workloads::ChainSpec s;
  s.num_tasks = tasks;
  s.task_cost = cost;
  s.body = body;
  s.num_workers = workers;
  return workloads::make_chain(s);
}

workloads::Workload cholesky(std::uint32_t tiles, std::uint32_t workers,
                             workloads::BodyKind body) {
  workloads::CholeskyDagSpec s;
  s.tiles = tiles;
  s.task_cost = 2000;
  s.body = body;
  s.num_workers = workers;
  return workloads::make_cholesky_dag(s);
}

int run_cli(std::initializer_list<const char*> args,
            std::string* out_text = nullptr) {
  std::vector<const char*> argv{"rioflow"};
  argv.insert(argv.end(), args.begin(), args.end());
  cli::Options o;
  std::string error;
  if (!cli::parse(static_cast<int>(argv.size()), argv.data(), o, error))
    return -1;
  std::ostringstream out, err;
  const int rc = cli::run(o, out, err);
  if (out_text) *out_text = out.str() + err.str();
  return rc;
}

// --------------------------------------------------------- cause word -----

TEST(CausalCause, PackAndUnpackRoundTrip) {
  const std::uint64_t c = obs::make_cause(42, 7);
  EXPECT_EQ(obs::cause_producer(c), 42u);
  EXPECT_EQ(obs::cause_data(c), 7u);
  // Producer without a data object (coor / sims).
  const std::uint64_t p = obs::make_cause(9);
  EXPECT_EQ(obs::cause_producer(p), 9u);
  EXPECT_EQ(obs::cause_data(p), obs::kNoCauseData);
  // The sentinel is its own fixed point.
  EXPECT_EQ(obs::cause_producer(obs::kNoCause), obs::kNoTask);
  EXPECT_EQ(obs::cause_data(obs::kNoCause), obs::kNoCauseData);
  // A producer id too wide for 32 bits degrades to unattributed, never to
  // a wrong task.
  EXPECT_EQ(obs::cause_producer(obs::make_cause(0x1'0000'0000ull, 3)),
            obs::kNoTask);
}

// ---------------------------------------------------------- simulators ----

TEST(CausalSim, ChainCriticalPathEqualsMakespanExactly) {
  // A chain on the virtual-time simulator is dependency-bound from task 0:
  // the walk reaches the first task at arrival 0 and the identity is exact.
  const std::uint32_t p = 2;
  auto wl = chain(40, 5000, p, workloads::BodyKind::kNone);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  sim::DecentralizedParams dp;
  dp.workers = p;
  dp.obs = &hub;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto rep = sim::simulate_decentralized(image, wl.mapping(p), dp);

  const obs::causal::Analysis an = obs::causal::analyze(hub);
  EXPECT_TRUE(an.complete);
  EXPECT_EQ(an.makespan, rep.makespan);
  EXPECT_EQ(an.crit_path, an.makespan);  // the closed-form identity
  EXPECT_EQ(an.path.size(), 40u);        // every chain link is on the path
  EXPECT_EQ(an.path.front().task, 0u);
  EXPECT_EQ(an.path.back().task, 39u);
  // Path follows the chain in order, each link bound by its predecessor.
  for (std::size_t i = 1; i < an.path.size(); ++i)
    EXPECT_EQ(an.path[i].task, an.path[i - 1].task + 1);
  EXPECT_EQ(an.wait_attributed, an.wait_total);
}

TEST(CausalSim, CholeskyCritPathBoundedByMakespan) {
  const std::uint32_t p = 4;
  auto wl = cholesky(5, p, workloads::BodyKind::kNone);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  sim::DecentralizedParams dp;
  dp.workers = p;
  dp.obs = &hub;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto rep = sim::simulate_decentralized(image, wl.mapping(p), dp);

  const obs::causal::Analysis an = obs::causal::analyze(hub);
  EXPECT_EQ(an.makespan, rep.makespan);
  EXPECT_LE(an.crit_path, an.makespan);
  EXPECT_FALSE(an.path.empty());
  // The walk never loops: every path node is a distinct task.
  std::set<std::uint64_t> seen;
  for (const auto& n : an.path) EXPECT_TRUE(seen.insert(n.task).second);
  // Attributed edges point at real predecessors, never at the consumer.
  for (const auto& e : an.edges)
    if (e.producer != obs::kNoTask) EXPECT_NE(e.producer, e.consumer);
}

TEST(CausalSim, CentralizedWaitsAttributeToArgmaxPredecessor) {
  const std::uint32_t p = 3;
  auto wl = cholesky(5, p, workloads::BodyKind::kNone);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  sim::CentralizedParams cp;
  cp.workers = p;
  cp.obs = &hub;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const auto rep = sim::simulate_centralized(image, cp);

  const obs::causal::Analysis an = obs::causal::analyze(hub);
  EXPECT_EQ(an.makespan, rep.makespan);
  EXPECT_LE(an.crit_path, an.makespan);
  // Dependency-bound waits are attributed; discovery-bound ones are not —
  // but attribution never exceeds the total.
  EXPECT_LE(an.wait_attributed, an.wait_total);
}

// ------------------------------------------------------ reconciliation ----

TEST(CausalRio, WaitTotalReconcilesWithPhaseTotalExactly) {
  // On rio every stalled acquire knows its data object and expected
  // writer, so (with no ring drops) three independently-computed numbers
  // coincide exactly: the recorder's acquire_wait phase total, the
  // analyzer's wait_total, and the per-handle blame sum.
  const std::uint32_t p = 2;
  auto wl = chain(24, 100000, p, workloads::BodyKind::kCounter);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  rt::Runtime eng(engine::Launch{.workers = p,
                                 .collect_stats = true,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  eng.run(image, wl.mapping(p));
  ASSERT_EQ(hub.dropped(), 0u);

  const obs::causal::Analysis an = obs::causal::analyze(hub);
  std::uint64_t phase_wait = 0;
  for (std::uint32_t w = 0; w < hub.num_workers(); ++w)
    phase_wait += hub.phase_totals(w)[kWaitIdx];
  EXPECT_EQ(an.wait_total, phase_wait);
  EXPECT_EQ(an.wait_attributed, an.wait_total);  // rio: always has a cause

  std::uint64_t handle_sum = 0;
  for (const auto& b : an.handle_blame) handle_sum += b.blame;
  EXPECT_EQ(handle_sum, an.wait_total);
  std::uint64_t task_sum = 0;
  for (const auto& b : an.task_blame) task_sum += b.blame;
  EXPECT_EQ(task_sum, an.wait_total);
  // A round-robin chain ping-pongs between two workers: waits must exist.
  EXPECT_GT(an.edges.size(), 0u);
  EXPECT_LE(an.crit_path, an.makespan);
}

TEST(CausalRio, PrunedRuntimeAttributesToo) {
  const std::uint32_t p = 2;
  auto wl = chain(24, 100000, p, workloads::BodyKind::kCounter);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rt::Runtime eng(engine::Launch{.workers = p,
                                 .collect_stats = true,
                                 .obs = &hub});
  eng.run_pruned(image, wl.mapping(p));
  ASSERT_EQ(hub.dropped(), 0u);

  const obs::causal::Analysis an = obs::causal::analyze(hub);
  std::uint64_t phase_wait = 0;
  for (std::uint32_t w = 0; w < hub.num_workers(); ++w)
    phase_wait += hub.phase_totals(w)[kWaitIdx];
  EXPECT_EQ(an.wait_total, phase_wait);
  EXPECT_EQ(an.wait_attributed, an.wait_total);
}

// ----------------------------------------------------------- flow events --

TEST(CausalExport, PerfettoFlowEventsAreStructurallyValid) {
  const std::uint32_t p = 2;
  auto wl = chain(24, 100000, p, workloads::BodyKind::kCounter);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  rt::Runtime eng(engine::Launch{.workers = p,
                                 .collect_stats = true,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  eng.run(image, wl.mapping(p));

  std::ostringstream os;
  obs::write_perfetto_trace(hub, os);
  const std::string json = os.str();

  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  // Every flow start has exactly one matching finish, and the pair shares
  // the "dep" name; the walk above guarantees at least one wait edge.
  const std::size_t starts = count("\"ph\": \"s\"");
  const std::size_t finishes = count("\"ph\": \"f\"");
  EXPECT_EQ(starts, finishes);
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(count("\"name\": \"dep\""), starts + finishes);
  EXPECT_EQ(count("\"bp\": \"e\""), finishes);
  // Still a well-formed JSON array.
  long depth = 0;
  for (char c : json) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// -------------------------------------------------------------- sampling --

TEST(CausalSampling, RingAccountingHoldsAtAnyStride) {
  // A stride-N recorder makes each lens time every N-th executed task,
  // decided before any clock read. An untimed task's two spans (body and
  // release) never reach the ring; commit() accounts them as dropped, so
  // recorded + dropped == pushed stays exact.
  const auto run = [](obs::Hub& hub, std::uint64_t tasks) {
    hub.ensure_workers(1);
    obs::WorkerObs ob;
    ob.bind(&hub, 0);
    for (std::uint64_t i = 0; i < tasks; ++i) {
      if (!ob.sampler.next()) continue;
      ob.body(i, 10 * i, 10 * i + 1);
      ob.release(i, 10 * i + 1, 10 * i + 2);
    }
    ob.commit(&hub);
  };

  // No overflow: tasks 0, 4, ..., 28 are timed, the rest dropped.
  obs::Hub hub(obs::HubOptions{
      .recorder = true, .ring_capacity = 64, .sample = 4});
  run(hub, 30);
  EXPECT_EQ(hub.pushed(), 60u);    // two spans per task
  EXPECT_EQ(hub.recorded(), 16u);  // 8 timed tasks
  EXPECT_EQ(hub.dropped(), 44u);
  EXPECT_EQ(hub.recorded() + hub.dropped(), hub.pushed());
  std::vector<std::uint64_t> bodies;
  for (const obs::Event& ev : hub.drain_events())
    if (ev.phase == obs::Phase::kBody) bodies.push_back(ev.task);
  ASSERT_EQ(bodies.size(), 8u);
  for (std::size_t i = 0; i < bodies.size(); ++i)
    EXPECT_EQ(bodies[i], i * 4);  // every 4th task, in order
  // Every body lasted 1 ns, so the weighted total is exact: 30.
  EXPECT_EQ(hub.phase_totals(0)[static_cast<std::size_t>(obs::Phase::kBody)],
            30u);

  // With overflow on top of sampling the identity still holds exactly.
  obs::Hub small(obs::HubOptions{
      .recorder = true, .ring_capacity = 4, .sample = 3});
  run(small, 100);
  EXPECT_EQ(small.pushed(), 200u);
  EXPECT_EQ(small.recorded(), 4u);
  EXPECT_EQ(small.recorded() + small.dropped(), small.pushed());
}

TEST(CausalSampling, SampledRunKeepsIdentityAndAnalyzerBounds) {
  const std::uint32_t p = 2;
  auto wl = cholesky(5, p, workloads::BodyKind::kCounter);
  obs::Hub hub(obs::HubOptions{.recorder = true, .sample = 4});
  rt::Runtime eng(engine::Launch{.workers = p,
                                 .collect_stats = true,
                                 .obs = &hub});
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  eng.run(image, wl.mapping(p));

  EXPECT_EQ(hub.sample_stride(), 4u);
  EXPECT_EQ(hub.recorded() + hub.dropped(), hub.pushed());
  EXPECT_GT(hub.dropped(), 0u);  // stride 4 necessarily drops spans

  // The analyzer must stay in bounds on the thinned DAG and flag it.
  const obs::causal::Analysis an = obs::causal::analyze(hub);
  EXPECT_FALSE(an.complete);
  EXPECT_LE(an.crit_path, an.makespan);
  std::set<std::uint64_t> seen;
  for (const auto& n : an.path) EXPECT_TRUE(seen.insert(n.task).second);
}

// -------------------------------------------------------------- recovery --

TEST(CausalRecovery, BlameSurvivesWorkerLoss) {
  // Kill a worker mid-run; the supervisor evicts and resumes. The rings
  // then hold spans from both generations — the analyzer must pick the
  // latest attempt per task and still produce an acyclic, bounded path.
  auto wl = cholesky(5, 3, workloads::BodyKind::kCounter);
  support::FaultPlan plan;
  plan.crash_tasks = {9};
  plan.max_crashes = 1;
  support::FaultInjector injector(plan);

  const engine::Backend* rio_backend =
      engine::Registry::instance().find("rio");
  ASSERT_NE(rio_backend, nullptr);
  obs::Hub hub(obs::HubOptions{.recorder = true});
  engine::Launch launch;
  launch.workers = 3;
  launch.fault = &injector;
  launch.mapping = wl.mapping(3);
  launch.obs = &hub;
  const engine::Outcome out = engine::run_supervised(
      *rio_backend, stf::FlowImage::compile(wl.flow), launch);
  EXPECT_EQ(out.evictions, 1u);

  const obs::causal::Analysis an = obs::causal::analyze(hub);
  EXPECT_LE(an.crit_path, an.makespan);
  EXPECT_FALSE(an.path.empty());
  std::set<std::uint64_t> seen;
  for (const auto& n : an.path) EXPECT_TRUE(seen.insert(n.task).second);
}

// ------------------------------------------------------------------ CLI ---

TEST(CausalCli, BlameJsonIsVersionedAndInternallyConsistent) {
  const std::string path = "/tmp/rioflow_test_blame.json";
  std::string text;
  const int rc =
      run_cli({"blame", "--engine", "sim-rio", "--workload", "chain",
               "--tasks", "40", "--task-size", "5000", "--json",
               path.c_str()},
              &text);
  EXPECT_EQ(rc, 0) << text;
  EXPECT_NE(text.find("critical path"), std::string::npos);

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  support::JsonValue doc;
  std::string error;
  ASSERT_TRUE(support::json_parse(ss.str(), doc, error)) << error;
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->str_or(""), "rio.blame.v1");
  const support::JsonValue* cp = doc.find("critical_path");
  ASSERT_NE(cp, nullptr);
  const double makespan = doc.find("makespan")->num_or(-1.0);
  const double length = cp->find("length")->num_or(-1.0);
  EXPECT_EQ(length, makespan);  // sim-rio chain: the exact identity again
  const support::JsonValue* rec = doc.find("recorder");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->find("recorded")->num_or(-1.0) +
                rec->find("dropped")->num_or(-1.0),
            rec->find("pushed")->num_or(-2.0));
  std::remove(path.c_str());
}

TEST(CausalCli, ProfileBlameFlagAndSampleParse) {
  cli::Options o;
  std::string error;
  std::vector<const char*> argv{"rioflow", "profile", "--blame",
                                "--sample", "8",      "--top", "3"};
  ASSERT_TRUE(cli::parse(static_cast<int>(argv.size()), argv.data(), o,
                         error))
      << error;
  EXPECT_TRUE(o.blame);
  EXPECT_EQ(o.sample, 8u);
  EXPECT_EQ(o.top_edges, 3u);
  // --sample 0 is rejected, and positional operands only belong to
  // obs-diff.
  std::vector<const char*> bad{"rioflow", "profile", "--sample", "0"};
  EXPECT_FALSE(cli::parse(static_cast<int>(bad.size()), bad.data(), o,
                          error));
  std::vector<const char*> pos{"rioflow", "profile", "a.json"};
  EXPECT_FALSE(cli::parse(static_cast<int>(pos.size()), pos.data(), o,
                          error));
}

TEST(CausalCli, ObsDiffSelfIsZeroDriftAndExitZero) {
  const std::string path = "/tmp/rioflow_test_obsdiff_self.json";
  ASSERT_EQ(run_cli({"profile", "--engine", "sim-rio", "--workload",
                     "cholesky", "--tiles", "4", "--quick", "--json",
                     path.c_str()}),
            0);
  std::string text;
  const int rc = run_cli({"obs-diff", path.c_str(), path.c_str()}, &text);
  EXPECT_EQ(rc, 0) << text;
  EXPECT_NE(text.find("no regressions"), std::string::npos);
  EXPECT_EQ(text.find("REGRESSED"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CausalCli, ObsDiffFlagsRegressionsWithExitThree) {
  // Hand-written minimal reports: the new run's acquire_wait grew 50%.
  const std::string old_path = "/tmp/rioflow_test_obsdiff_old.json";
  const std::string new_path = "/tmp/rioflow_test_obsdiff_new.json";
  const auto write = [](const std::string& p, std::uint64_t wait) {
    std::ofstream f(p);
    f << "{\"schema\": \"rio.obs.v1\", \"wall_ns\": 1000,\n"
      << " \"totals\": {\"phases\": {\"acquire_wait\": " << wait
      << ", \"body\": 500},\n"
      << "  \"counters\": {\"tasks_executed\": 10}},\n"
      << " \"decompose\": {\"product\": 0.5}}\n";
  };
  write(old_path, 200);
  write(new_path, 300);
  std::string text;
  const int rc = run_cli(
      {"obs-diff", old_path.c_str(), new_path.c_str(), "--threshold", "10"},
      &text);
  EXPECT_EQ(rc, 3) << text;
  EXPECT_NE(text.find("acquire_wait"), std::string::npos);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  // Same files, threshold above the drift: clean exit.
  EXPECT_EQ(run_cli({"obs-diff", old_path.c_str(), new_path.c_str(),
                     "--threshold", "60"}),
            0);
  // Wrong arity and a non-obs document are configuration errors.
  EXPECT_EQ(run_cli({"obs-diff", old_path.c_str()}), 1);
  std::ofstream(new_path) << "{\"schema\": \"rio.blame.v1\"}";
  EXPECT_EQ(run_cli({"obs-diff", old_path.c_str(), new_path.c_str()}), 1);
  std::remove(old_path.c_str());
  std::remove(new_path.c_str());
}

// ------------------------------------------------------------ json_read ---

TEST(CausalJsonRead, ParsesTheTreesOwnDocuments) {
  support::JsonValue v;
  std::string error;
  ASSERT_TRUE(support::json_parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null})",
      v, error))
      << error;
  ASSERT_EQ(v.kind, support::JsonValue::Kind::kObject);
  const support::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].num_or(0), 1.0);
  EXPECT_EQ(a->items[1].num_or(0), 2.5);
  EXPECT_EQ(a->items[2].num_or(0), -300.0);
  EXPECT_EQ(v.find("b")->find("c")->str_or(""), "x\ny");
  EXPECT_TRUE(v.find("d")->boolean);
  EXPECT_EQ(v.find("e")->kind, support::JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(CausalJsonRead, RejectsMalformedInput) {
  support::JsonValue v;
  std::string error;
  EXPECT_FALSE(support::json_parse("{\"a\": 1,}", v, error));
  EXPECT_FALSE(support::json_parse("[1, 2] trailing", v, error));
  EXPECT_FALSE(support::json_parse("{\"a\" 1}", v, error));
  EXPECT_FALSE(support::json_parse("\"unterminated", v, error));
  EXPECT_FALSE(support::json_parse("{\"a\": \"\\q\"}", v, error));
  EXPECT_FALSE(support::json_parse("", v, error));
  // Errors carry a byte offset for the user.
  EXPECT_NE(error.find("offset"), std::string::npos);
}

}  // namespace
