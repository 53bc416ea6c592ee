// Tests for the flowpass optimization pipeline (src/flowpass,
// docs/passes.md).
//
// The load-bearing properties:
//   * the PASS MATRIX: every registered pass (and the whole default
//     pipeline) applied to a fold-body workload leaves the data
//     byte-identical to the sequential oracle on every executes_bodies
//     backend — iterated over both registries, so a new pass or backend
//     joins the matrix by registering and nothing else;
//   * fuse respects its edge cases: singleton chains, fan-out barriers and
//     the cost threshold stop fusion; a second application is a no-op;
//   * the map pass's winner never scores worse than the round-robin
//     baseline, and --tune scoring is bit-deterministic;
//   * a rewritten image inherits its source's serial but NOT its
//     fingerprint, so PrunedPlanCache can never serve the unoptimized plan
//     for an optimized image;
//   * engine registry aliases (pruned, sim) resolve to their targets.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "cli/cli.hpp"
#include "engine/registry.hpp"
#include "flowpass/cost.hpp"
#include "flowpass/pass.hpp"
#include "rio/pruning.hpp"
#include "rio/rio.hpp"
#include "stf/flow_rewrite.hpp"
#include "stf/stf.hpp"
#include "support/json_read.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;

// One data object, N tiny sequentially-dependent tasks: the canonical
// fusion victim. Fold bodies mix the TASK ID into the bytes, so the test
// also proves the rewriter's id-preserving trampolines work.
workloads::Workload tiny_chain(std::uint64_t tasks, std::uint64_t cost) {
  workloads::ChainSpec s;
  s.num_tasks = tasks;
  s.task_cost = cost;
  s.body = workloads::BodyKind::kFold;
  s.num_workers = 2;
  return workloads::make_chain(s);
}

workloads::Workload fold_workload(const std::string& name) {
  if (name == "chain") return tiny_chain(48, 7);
  if (name == "cholesky") {
    workloads::CholeskyDagSpec s;
    s.tiles = 4;
    s.task_cost = 7;
    s.body = workloads::BodyKind::kFold;
    s.num_workers = 2;
    return workloads::make_cholesky_dag(s);
  }
  workloads::RandomDepsSpec s;  // "random"
  s.num_tasks = 80;
  s.task_cost = 7;
  s.body = workloads::BodyKind::kFold;
  s.seed = 7;
  s.num_workers = 2;
  return workloads::make_random_deps(s);
}

std::vector<std::vector<std::byte>> snapshot(const stf::DataRegistry& reg) {
  std::vector<std::vector<std::byte>> img(reg.size());
  for (std::size_t d = 0; d < reg.size(); ++d) {
    const auto id = static_cast<stf::DataId>(d);
    img[d].resize(reg.bytes(id));
    std::memcpy(img[d].data(), reg.raw(id), reg.bytes(id));
  }
  return img;
}

std::vector<std::vector<std::byte>> oracle_for(const std::string& wl) {
  workloads::Workload w = fold_workload(wl);
  const stf::FlowImage image = stf::FlowImage::compile(w.flow);
  stf::SequentialExecutor{}.run(image);
  return snapshot(w.flow.registry());
}

flowpass::PassOptions small_opts() {
  flowpass::PassOptions o;
  o.workers = 2;
  o.fuse_threshold = 100;  // all fold_workload tasks (cost 7) are fusable
  return o;
}

// ------------------------------------------------------------- registry ----

TEST(PassRegistry, HoldsTheBuiltinsInPipelineOrder) {
  const auto names = flowpass::Registry::instance().names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "fuse");
  EXPECT_EQ(names[1], "reorder");
  EXPECT_EQ(names[2], "partition");
  EXPECT_EQ(names[3], "map");
  for (const flowpass::Pass* p : flowpass::Registry::instance().all()) {
    EXPECT_FALSE(std::string(p->name()).empty());
    EXPECT_FALSE(std::string(p->description()).empty());
  }
}

TEST(PassRegistry, StructuredUnknownNameError) {
  std::string error;
  EXPECT_EQ(flowpass::Registry::instance().find_or_error("inline", error),
            nullptr);
  EXPECT_NE(error.find("unknown pass 'inline'"), std::string::npos) << error;
  EXPECT_NE(error.find("choices:"), std::string::npos) << error;
  for (const std::string& name : flowpass::Registry::instance().names())
    EXPECT_NE(error.find(name), std::string::npos) << error;
}

TEST(PassRegistry, PipelineFailsWholesaleOnUnknownName) {
  workloads::Workload wl = tiny_chain(8, 5);
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto result =
      flowpass::run_pipeline(src, {"fuse", "bogus"}, small_opts());
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("unknown pass 'bogus'"), std::string::npos);
  EXPECT_TRUE(result.passes.empty()) << "nothing may run on a bad pipeline";
}

// ------------------------------------------------------- engine aliases ----

TEST(EngineAliases, ResolveToTheirTargets) {
  auto& reg = engine::Registry::instance();
  ASSERT_NE(reg.find("pruned"), nullptr);
  EXPECT_EQ(reg.find("pruned"), reg.find("rio-pruned"));
  ASSERT_NE(reg.find("sim"), nullptr);
  EXPECT_EQ(reg.find("sim"), reg.find("sim-rio"));
  // Canonical names keep working, and the alias lists are discoverable.
  EXPECT_EQ(reg.aliases_for("rio-pruned"), std::vector<std::string>{"pruned"});
  EXPECT_EQ(reg.aliases_for("sim-rio"), std::vector<std::string>{"sim"});
  EXPECT_TRUE(reg.aliases_for("rio").empty());
  // find_or_error resolves aliases too (the CLI path).
  std::string error;
  EXPECT_NE(reg.find_or_error("pruned", error), nullptr) << error;
}

// ------------------------------------------------------------ fuse ---------

TEST(FusePass, CollapsesATinyChain) {
  workloads::Workload wl = tiny_chain(16, 5);
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto result = flowpass::run_pipeline(src, {"fuse"}, small_opts());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image.size(), 2u);  // 16 tasks / max_group 8
  EXPECT_EQ(result.image.total_cost(), src.total_cost());
  EXPECT_EQ(result.image.serial(), src.serial());
  EXPECT_NE(result.image.fingerprint(), src.fingerprint());
}

TEST(FusePass, SingletonChainsStayPut) {
  // Two tiny tasks on DISJOINT data: no conflict edge, nothing to fuse.
  stf::TaskFlow flow;
  auto a = flow.create_data<std::uint64_t>("a");
  auto b = flow.create_data<std::uint64_t>("b");
  flow.add_virtual(5, {stf::write(a)}, "lone-a");
  flow.add_virtual(5, {stf::write(b)}, "lone-b");
  const stf::FlowImage src = stf::FlowImage::compile(flow);
  const auto result = flowpass::run_pipeline(src, {"fuse"}, small_opts());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image.size(), 2u);
  EXPECT_EQ(result.image.fingerprint(), src.fingerprint())
      << "a no-op rewrite must not change the content hash";
}

TEST(FusePass, FanOutBreaksTheChain) {
  // head -> {left, right} -> join: the head has two successors, so no link
  // is exclusive and nothing may fuse across the barrier.
  stf::TaskFlow flow;
  auto x = flow.create_data<std::uint64_t>("x");
  auto l = flow.create_data<std::uint64_t>("l");
  auto r = flow.create_data<std::uint64_t>("r");
  flow.add_virtual(5, {stf::write(x)}, "head");
  flow.add_virtual(5, {stf::read(x), stf::write(l)}, "left");
  flow.add_virtual(5, {stf::read(x), stf::write(r)}, "right");
  flow.add_virtual(5, {stf::read(l), stf::read(r)}, "join");
  const stf::FlowImage src = stf::FlowImage::compile(flow);
  const auto result = flowpass::run_pipeline(src, {"fuse"}, small_opts());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image.size(), 4u);
}

TEST(FusePass, ThresholdIsStrict) {
  // Cost exactly at the threshold is NOT tiny; nothing fuses.
  workloads::Workload wl = tiny_chain(8, 100);
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto result = flowpass::run_pipeline(src, {"fuse"}, small_opts());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image.size(), 8u);
}

TEST(FusePass, SecondApplicationIsANoOp) {
  workloads::Workload wl = tiny_chain(12, 5);
  flowpass::PassOptions opts = small_opts();
  opts.fuse_max_group = 16;  // whole chain in one composite
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto once = flowpass::run_pipeline(src, {"fuse"}, opts);
  ASSERT_TRUE(once.ok()) << once.error;
  EXPECT_EQ(once.image.size(), 1u);
  const auto twice = flowpass::run_pipeline(once.image, {"fuse"}, opts);
  ASSERT_TRUE(twice.ok()) << twice.error;
  EXPECT_EQ(twice.image.size(), 1u);
  EXPECT_EQ(twice.image.fingerprint(), once.image.fingerprint());
}

TEST(FusePass, ReductionAccessesNeverFuse) {
  stf::TaskFlow flow;
  auto acc = flow.create_data<std::uint64_t>("acc");
  flow.add_virtual(5, {stf::write(acc)}, "init");
  flow.add_virtual(5, {stf::reduce(acc)}, "r0");
  flow.add_virtual(5, {stf::reduce(acc)}, "r1");
  const stf::FlowImage src = stf::FlowImage::compile(flow);
  const auto result = flowpass::run_pipeline(src, {"fuse"}, small_opts());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image.size(), 3u);
}

// --------------------------------------------------------- reorder ---------

TEST(ReorderPass, EmitsATopologicalPermutation) {
  workloads::Workload wl = fold_workload("cholesky");
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto result = flowpass::run_pipeline(src, {"reorder"}, small_opts());
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.image.size(), src.size());
  EXPECT_EQ(result.image.total_cost(), src.total_cost());
  // Ids being a valid topological order is a DependencyGraph invariant; if
  // reorder emitted a non-topological permutation, fold execution below
  // (the matrix test) would corrupt bytes. Here: determinism.
  const auto again = flowpass::run_pipeline(src, {"reorder"}, small_opts());
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(again.image.fingerprint(), result.image.fingerprint());
}

// ------------------------------------------------------- partition ---------

TEST(PartitionPass, ProducesCoveringPhasesAndABoundedMapping) {
  workloads::Workload wl = fold_workload("random");
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto result =
      flowpass::run_pipeline(src, {"partition"}, small_opts());
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.mapping.valid());
  for (std::size_t i = 0; i < src.size(); ++i)
    EXPECT_LT(result.mapping(src.task_id(i)), 2u);
  ASSERT_FALSE(result.phases.empty());
  stf::TaskId next = 0;
  std::size_t covered = 0;
  for (const hybrid::Phase& ph : result.phases) {
    EXPECT_EQ(ph.first, next) << "phases must tile the flow contiguously";
    EXPECT_GT(ph.count, 0u);
    EXPECT_EQ(ph.kind, hybrid::Phase::Kind::kStatic);
    EXPECT_TRUE(ph.mapping.valid());
    next = static_cast<stf::TaskId>(ph.first + ph.count);
    covered += ph.count;
  }
  EXPECT_EQ(covered, src.size());
}

// ------------------------------------------------------------- map ---------

TEST(MapPass, WinnerNeverLosesToTheBaseline) {
  for (const char* wl_name : {"chain", "cholesky", "random"}) {
    SCOPED_TRACE(wl_name);
    workloads::Workload wl = fold_workload(wl_name);
    const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
    const auto result = flowpass::run_pipeline(src, {"map"}, small_opts());
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.passes.size(), 1u);
    const auto& tuning = result.passes[0].tuning;
    ASSERT_FALSE(tuning.empty());
    EXPECT_EQ(tuning[0].candidate, "round-robin");
    std::uint64_t chosen_score = 0;
    bool saw_chosen = false;
    for (const auto& t : tuning)
      if (t.chosen) {
        chosen_score = t.score;
        saw_chosen = true;
      }
    ASSERT_TRUE(saw_chosen);
    EXPECT_LE(chosen_score, tuning[0].score);
    EXPECT_TRUE(result.mapping.valid());
  }
}

TEST(MapPass, TunedScoringIsDeterministic) {
  workloads::Workload wl = fold_workload("cholesky");
  flowpass::PassOptions opts = small_opts();
  opts.tune = true;
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto a = flowpass::run_pipeline(src, {"map"}, opts);
  const auto b = flowpass::run_pipeline(src, {"map"}, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.passes.size(), 1u);
  ASSERT_EQ(a.passes[0].tuning.size(), b.passes[0].tuning.size());
  for (std::size_t i = 0; i < a.passes[0].tuning.size(); ++i) {
    EXPECT_EQ(a.passes[0].tuning[i].candidate,
              b.passes[0].tuning[i].candidate);
    EXPECT_EQ(a.passes[0].tuning[i].score, b.passes[0].tuning[i].score)
        << "virtual makespans must be bit-deterministic";
    EXPECT_EQ(a.passes[0].tuning[i].chosen, b.passes[0].tuning[i].chosen);
  }
  // The tuned winner's simulated makespan never exceeds the identity
  // (round-robin baseline) makespan — the acceptance bar for --tune.
  std::uint64_t chosen = 0;
  for (const auto& t : a.passes[0].tuning)
    if (t.chosen) chosen = t.score;
  EXPECT_LE(chosen, a.passes[0].tuning[0].score);
}

// ---------------------------------------------- fingerprints + plan cache --

TEST(Fingerprint, TracksContentNotLineage) {
  workloads::Workload wl = tiny_chain(16, 5);
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto fused = flowpass::run_pipeline(src, {"fuse"}, small_opts());
  ASSERT_TRUE(fused.ok()) << fused.error;
  // Same lineage, different content.
  EXPECT_EQ(fused.image.serial(), src.serial());
  EXPECT_NE(fused.image.fingerprint(), src.fingerprint());
  // A pure clone keeps both.
  const stf::FlowImage copy = stf::FlowRewriter(src).compile();
  EXPECT_EQ(copy.serial(), src.serial());
  EXPECT_EQ(copy.fingerprint(), src.fingerprint());
}

TEST(PrunedPlanCache, OptimizedImageNeverReusesTheUnoptimizedPlan) {
  workloads::Workload wl = tiny_chain(16, 5);
  const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
  const auto fused = flowpass::run_pipeline(src, {"fuse"}, small_opts());
  ASSERT_TRUE(fused.ok()) << fused.error;
  ASSERT_EQ(fused.image.serial(), src.serial());

  rt::PrunedPlanCache cache;
  const rt::Mapping mapping = rt::mapping::round_robin(2);
  const auto plan_a = cache.get(src, mapping, 2);
  EXPECT_EQ(cache.compiles(), 1u);
  const auto plan_b = cache.get(src, mapping, 2);
  EXPECT_EQ(cache.compiles(), 1u) << "same image must hit";
  EXPECT_EQ(plan_a.get(), plan_b.get());
  // Same serial + same mapping + same workers, different fingerprint: the
  // cache MUST miss, or the engine would replay the 16-task plan over the
  // 2-task fused image.
  const auto plan_c = cache.get(fused.image, mapping, 2);
  EXPECT_EQ(cache.compiles(), 2u);
  EXPECT_NE(plan_a.get(), plan_c.get());
}

// ----------------------------------------------------------- the matrix ----

TEST(PassMatrix, EveryPassOnEveryBackendMatchesTheOracle) {
  std::vector<std::vector<std::string>> pipelines;
  for (const std::string& name : flowpass::Registry::instance().names())
    pipelines.push_back({name});
  pipelines.push_back(flowpass::Registry::instance().names());  // all at once

  for (const char* wl_name : {"chain", "cholesky", "random"}) {
    const auto oracle = oracle_for(wl_name);
    for (const auto& pipeline : pipelines) {
      std::string label = std::string(wl_name) + " | passes";
      for (const auto& p : pipeline) label += " " + p;
      for (const engine::Backend* backend :
           engine::Registry::instance().all()) {
        if (!backend->caps().executes_bodies) continue;
        SCOPED_TRACE(label + " | " + std::string(backend->name()));

        workloads::Workload wl = fold_workload(wl_name);
        const stf::FlowImage src = stf::FlowImage::compile(wl.flow);
        const auto result =
            flowpass::run_pipeline(src, pipeline, small_opts());
        ASSERT_TRUE(result.ok()) << result.error;

        engine::Launch launch;
        launch.workers = 2;
        launch.mapping = result.mapping.valid()
                             ? result.mapping
                             : rt::mapping::round_robin(2);
        (void)backend->run(result.image, launch);
        EXPECT_EQ(snapshot(wl.flow.registry()), oracle)
            << "rewritten flow diverged from the sequential oracle";
      }
    }
  }
}

// ------------------------------------------------------------ lint RF501 ---

TEST(LintGranularity, TinyTasksFixtureWarnsAndCoarseFlowsDoNot) {
  {
    stf::TaskFlow flow = analysis::fixtures::bad_tiny_tasks();
    const stf::DependencyGraph graph(flow);
    const analysis::Report r = analysis::lint_flow(flow, graph);
    EXPECT_TRUE(r.has("RF501"));
  }
  {
    // Same shape, default-cost tasks: median 1000 is NOT below 1000.
    stf::TaskFlow flow;
    auto x = flow.create_data<std::uint64_t>("x");
    for (int i = 0; i < 20; ++i)
      flow.add_virtual(1000, {stf::readwrite(x)}, "coarse");
    const stf::DependencyGraph graph(flow);
    EXPECT_FALSE(analysis::lint_flow(flow, graph).has("RF501"));
  }
  {
    // Tiny costs but a tiny flow: below fusion_min_tasks, no noise.
    stf::TaskFlow flow;
    auto x = flow.create_data<std::uint64_t>("x");
    for (int i = 0; i < 4; ++i)
      flow.add_virtual(1, {stf::readwrite(x)}, "small");
    const stf::DependencyGraph graph(flow);
    EXPECT_FALSE(analysis::lint_flow(flow, graph).has("RF501"));
  }
}

// -------------------------------------------------------------- CLI --------

int run_cli(std::initializer_list<const char*> args, std::string* out_text) {
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

TEST(CliOptimize, VerifiesAndReportsOnARealEngine) {
  std::string text;
  EXPECT_EQ(run_cli({"optimize", "--workload", "chain", "--tasks", "32",
                     "--task-size", "5", "--engine", "rio", "--passes",
                     "fuse,map", "--report"},
                    &text),
            0)
      << text;
  EXPECT_NE(text.find("verification: optimized ok, unoptimized ok"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fuse"), std::string::npos) << text;
}

TEST(CliOptimize, EmitsSchemaValidJson) {
  const std::string path = "flowpass_optimize_test.json";
  std::string text;
  EXPECT_EQ(run_cli({"optimize", "--workload", "chain", "--tasks", "32",
                     "--task-size", "5", "--engine", "sim", "--tune",
                     "--passes", "fuse,map", "--json", path.c_str()},
                    &text),
            0)
      << text;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  support::JsonValue doc;
  std::string error;
  ASSERT_TRUE(support::json_parse(buf.str(), doc, error)) << error;
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->str_or(""), "rio.optimize.v1");
  // Alias resolved to the canonical engine name.
  ASSERT_NE(doc.find("engine"), nullptr);
  EXPECT_EQ(doc.find("engine")->str_or(""), "sim-rio");
  ASSERT_NE(doc.find("passes"), nullptr);
  EXPECT_EQ(doc.find("passes")->items.size(), 2u);
  const support::JsonValue& map_pass = doc.find("passes")->items[1];
  ASSERT_NE(map_pass.find("tuning"), nullptr);
  EXPECT_FALSE(map_pass.find("tuning")->items.empty());
  // Tuned winner must not regress the identity baseline (virtual ticks).
  ASSERT_NE(doc.find("optimized_makespan"), nullptr);
  ASSERT_NE(doc.find("unoptimized_makespan"), nullptr);
  EXPECT_LE(doc.find("optimized_makespan")->num_or(1e18),
            doc.find("unoptimized_makespan")->num_or(0));
  std::remove(path.c_str());
}

TEST(CliOptimize, UnknownPassIsAConfigError) {
  std::string text;
  EXPECT_EQ(run_cli({"optimize", "--passes", "bogus", "--workload", "chain",
                     "--tasks", "8"},
                    &text),
            1);
  EXPECT_NE(text.find("unknown pass 'bogus'"), std::string::npos) << text;
}

TEST(CliOptimize, EngineEnvDefaultAndAliasParse) {
  cli::Options o;
  std::string error;
  const char* argv[] = {"rioflow", "optimize", "--engine", "pruned"};
  ASSERT_TRUE(cli::parse(4, argv, o, error)) << error;
  EXPECT_TRUE(o.engine_given);
  EXPECT_EQ(o.engine, "pruned");
}

}  // namespace
