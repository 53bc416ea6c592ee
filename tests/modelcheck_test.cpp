// Tests for the explicit-state model checker: tiny hand-checked state
// spaces, the Appendix-B properties on the paper's LU instances, and
// negative cases (a broken "execution model" must be caught).
#include <gtest/gtest.h>

#include <string>

#include "support/wait.hpp"
#include "rio/mapping.hpp"
#include "modelcheck/impl.hpp"
#include "modelcheck/spec.hpp"
#include "workloads/lu.hpp"

namespace {

using namespace rio;
using mc::check_run_in_order;
using mc::check_stf;

stf::TaskFlow lu_flow(std::uint32_t rt, std::uint32_t ct) {
  workloads::LuDagSpec spec;
  spec.row_tiles = rt;
  spec.col_tiles = ct;
  spec.body = workloads::BodyKind::kNone;
  return std::move(workloads::make_lu_dag(spec).flow);
}

// ------------------------------------------------------- tiny state spaces -

TEST(StfModel, SingleTaskTwoWorkers) {
  stf::TaskFlow flow;
  flow.add_virtual(1, {});
  const auto r = check_stf(flow, 2);
  EXPECT_TRUE(r.ok()) << r.violation;
  // States: init; w0 or w1 executing; done. = 4 distinct.
  EXPECT_EQ(r.distinct_states, 4u);
  EXPECT_EQ(r.terminal_states, 1u);
}

TEST(StfModel, TwoIndependentTasksInterleaveFreely) {
  stf::TaskFlow flow;
  flow.add_virtual(1, {});
  flow.add_virtual(1, {});
  const auto r1 = check_stf(flow, 1);
  const auto r2 = check_stf(flow, 2);
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
  // More workers, more interleavings.
  EXPECT_GT(r2.distinct_states, r1.distinct_states);
}

TEST(StfModel, ChainHasLinearStateSpace) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 5; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  const auto r = check_stf(flow, 2);
  EXPECT_TRUE(r.ok()) << r.violation;
  // A chain admits no concurrency: per step only (executing by w0/w1) and
  // idle states: 1 + 5*(2+1) states... exact: init + per task (2 active
  // variants + 1 terminated) = 1 + 5*3 = 16? Enumerate: between task i and
  // i+1 there is exactly one 'all idle' state. States: all-idle x6 + active
  // x(5 tasks x 2 workers) = 16.
  EXPECT_EQ(r.distinct_states, 16u);
}

TEST(RioModel, ChainOnTwoWorkersIsDeterministic) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 5; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  const auto r = check_run_in_order(flow, 2, rt::mapping::round_robin(2));
  EXPECT_TRUE(r.ok()) << r.violation;
  // In-order + fixed mapping: exactly one execution: 11 states
  // (init + execute/terminate alternation per task).
  EXPECT_EQ(r.distinct_states, 11u);
  EXPECT_EQ(r.terminal_states, 1u);
}

TEST(RioModel, FewerBehavioursThanStf) {
  const auto flow_size = [](std::uint32_t rt, std::uint32_t ct) {
    auto flow = lu_flow(rt, ct);
    const auto stf_r = check_stf(flow, 2);
    const auto rio_r =
        check_run_in_order(flow, 2, rt::mapping::round_robin(2));
    EXPECT_TRUE(stf_r.ok());
    EXPECT_TRUE(rio_r.ok()) << rio_r.violation;
    // The in-order model restricts executions: fewer distinct states.
    EXPECT_LT(rio_r.distinct_states, stf_r.distinct_states);
  };
  flow_size(2, 2);
  flow_size(3, 2);
}

// ------------------------------------------------ the Table 1 instances ----

TEST(Table1, Lu2x2Properties) {
  auto flow = lu_flow(2, 2);
  // k=0: getrf + trsm_u + trsm_l + gemm (4); k=1: getrf (1).
  EXPECT_EQ(flow.num_tasks(), 5u);
  EXPECT_EQ(workloads::lu_dag_task_count(2, 2), 5u);
  const auto stf_r = check_stf(flow, 2);
  EXPECT_TRUE(stf_r.ok()) << stf_r.violation;
  const auto rio_r = check_run_in_order(flow, 2, rt::mapping::round_robin(2));
  EXPECT_TRUE(rio_r.ok()) << rio_r.violation;
}

TEST(Table1, Lu3x2Properties) {
  auto flow = lu_flow(3, 2);
  const auto stf_r = check_stf(flow, 2);
  EXPECT_TRUE(stf_r.ok()) << stf_r.violation;
  const auto rio_r = check_run_in_order(flow, 2, rt::mapping::round_robin(2));
  EXPECT_TRUE(rio_r.ok()) << rio_r.violation;
  // Exponential growth vs 2x2, as in Table 1.
  const auto small = check_stf(lu_flow(2, 2), 2);
  EXPECT_GT(stf_r.generated_states, small.generated_states);
}

// ----------------------------------------------------------- negative ------

TEST(Property, AnyMappingIsDeadlockFree) {
  // Because every worker walks its share in global flow order and
  // dependencies only point backwards, the RunInOrder model is deadlock-
  // free for EVERY mapping — a key soundness property of the paper's
  // model. Sweep a few adversarial mappings over a dependency-heavy flow.
  auto flow = lu_flow(3, 3);
  const auto n = flow.num_tasks();
  for (std::uint64_t variant = 0; variant < 6; ++variant) {
    std::vector<stf::WorkerId> owners(n);
    for (std::size_t t = 0; t < n; ++t)
      owners[t] = static_cast<stf::WorkerId>((t * (variant + 1) + variant) % 2);
    const auto r =
        check_run_in_order(flow, 2, rt::mapping::table(owners), true, 500'000);
    EXPECT_TRUE(r.ok()) << "variant " << variant << ": " << r.violation;
  }
}

TEST(Negative, TruncationReported) {
  auto flow = lu_flow(3, 3);
  const auto r = check_stf(flow, 2, /*max_states=*/100);
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.ok());
}

TEST(Checker, GeneratedAtLeastDistinct) {
  auto flow = lu_flow(2, 2);
  const auto r = check_stf(flow, 2);
  EXPECT_GE(r.generated_states, r.distinct_states - 1);
}

// --------------------------------------------- implementation-level checks -
//
// mc::impl runs the REAL protocol templates (data_object.hpp / pruning /
// coor sync_ops) under a controlled scheduler. These tests pin down: clean
// protocols verify on every engine, DPOR agrees with naive enumeration
// while exploring less, and a deliberately broken shim (dropped notify) is
// caught with a deterministically replayable witness.

stf::TaskFlow chain_flow(int n) {
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < n; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  return flow;
}

stf::TaskFlow fork_join_flow() {
  stf::TaskFlow flow;
  auto a = flow.create_data<int>("a");
  flow.add_virtual(1, {stf::write(a)});   // 0: producer
  flow.add_virtual(1, {stf::read(a)});    // 1: reader
  flow.add_virtual(1, {stf::read(a)});    // 2: reader
  flow.add_virtual(1, {stf::write(a)});   // 3: joins after both reads
  return flow;
}

stf::TaskFlow independent_flow(int n) {
  stf::TaskFlow flow;
  for (int i = 0; i < n; ++i) {
    auto d = flow.create_data<int>("d" + std::to_string(i));
    flow.add_virtual(1, {stf::readwrite(d)});
  }
  return flow;
}

mc::impl::Options impl_opts(mc::impl::EngineKind engine,
                            support::WaitPolicy policy) {
  mc::impl::Options o;
  o.engine = engine;
  o.workers = 2;
  o.policy = policy;
  return o;
}

TEST(ImplModel, CleanProtocolVerifiesOnEveryEngine) {
  const auto flow = fork_join_flow();
  const auto mapping = rt::mapping::round_robin(2);
  for (auto engine : {mc::impl::EngineKind::kRio,
                      mc::impl::EngineKind::kRioPruned,
                      mc::impl::EngineKind::kCoor}) {
    for (auto policy :
         {support::WaitPolicy::kSpinYield, support::WaitPolicy::kBlock}) {
      const auto r =
          mc::impl::verify(flow, mapping, impl_opts(engine, policy));
      EXPECT_TRUE(r.ok()) << mc::impl::to_string(engine) << "/"
                          << support::to_string(policy) << ": ["
                          << r.violation_kind << "] " << r.violation;
      EXPECT_GE(r.explored, 1u);
      EXPECT_FALSE(r.truncated);
    }
  }
}

TEST(ImplModel, DporAndNaiveAgreeAndDporExploresNoMore) {
  const auto mapping = rt::mapping::round_robin(2);
  const stf::TaskFlow flows[] = {chain_flow(3), fork_join_flow(),
                                 independent_flow(3)};
  for (const auto& flow : flows) {
    auto opts = impl_opts(mc::impl::EngineKind::kRio,
                          support::WaitPolicy::kSpinYield);
    const auto dpor = mc::impl::verify(flow, mapping, opts);
    opts.dpor = false;
    const auto naive = mc::impl::verify(flow, mapping, opts);
    EXPECT_EQ(dpor.ok(), naive.ok())
        << dpor.violation << " vs " << naive.violation;
    EXPECT_FALSE(naive.truncated);
    EXPECT_LE(dpor.explored, naive.explored);
  }
}

TEST(ImplModel, DporAndNaiveAgreeOnCoor) {
  // COOR runs a master thread plus workers and models its per-node locks
  // and the ready queue, so its naive interleaving space explodes much
  // faster than RIO's: compare against naive on the smallest non-trivial
  // configuration only (one worker + master, two-task flows).
  const auto mapping = rt::mapping::round_robin(1);
  const stf::TaskFlow flows[] = {chain_flow(2), independent_flow(2)};
  for (const auto& flow : flows) {
    auto opts = impl_opts(mc::impl::EngineKind::kCoor,
                          support::WaitPolicy::kSpinYield);
    opts.workers = 1;
    const auto dpor = mc::impl::verify(flow, mapping, opts);
    opts.dpor = false;
    const auto naive = mc::impl::verify(flow, mapping, opts);
    EXPECT_EQ(dpor.ok(), naive.ok())
        << dpor.violation << " vs " << naive.violation;
    EXPECT_FALSE(naive.truncated);
    EXPECT_LE(dpor.explored, naive.explored);
  }
}

TEST(ImplModel, DporPrunesIndependentTasks) {
  // Fully independent tasks commute; DPOR should collapse most of the
  // naive interleaving space.
  const auto flow = independent_flow(3);
  const auto mapping = rt::mapping::round_robin(2);
  auto opts = impl_opts(mc::impl::EngineKind::kRio,
                        support::WaitPolicy::kSpinYield);
  const auto dpor = mc::impl::verify(flow, mapping, opts);
  opts.dpor = false;
  const auto naive = mc::impl::verify(flow, mapping, opts);
  EXPECT_TRUE(dpor.ok()) << dpor.violation;
  EXPECT_TRUE(naive.ok()) << naive.violation;
  EXPECT_LT(dpor.explored, naive.explored);
}

TEST(ImplModel, PreemptionBoundShrinksExploration) {
  const auto flow = chain_flow(4);
  const auto mapping = rt::mapping::round_robin(2);
  auto opts = impl_opts(mc::impl::EngineKind::kRio,
                        support::WaitPolicy::kSpinYield);
  const auto unbounded = mc::impl::verify(flow, mapping, opts);
  opts.max_preemptions = 1;
  const auto bounded = mc::impl::verify(flow, mapping, opts);
  EXPECT_TRUE(unbounded.ok()) << unbounded.violation;
  EXPECT_TRUE(bounded.ok()) << bounded.violation;
  EXPECT_LE(bounded.explored, unbounded.explored);
}

TEST(ImplModel, WaitFreeRingVerifiesOnCoor) {
  // --queue ring swaps the one-step locked-queue abstraction for the real
  // ReadyRingT code (CAS slot claims, per-slot sequence words, the
  // version+waiters doorbell pair) instantiated on the instrumented word
  // type. Small flows + one worker keep the space exhaustible.
  const auto mapping = rt::mapping::round_robin(1);
  const stf::TaskFlow flows[] = {chain_flow(2), independent_flow(2)};
  for (const auto& flow : flows) {
    for (auto policy :
         {support::WaitPolicy::kSpinYield, support::WaitPolicy::kBlock}) {
      auto opts = impl_opts(mc::impl::EngineKind::kCoor, policy);
      opts.workers = 1;
      opts.queue = coor::QueueKind::kRing;
      const auto r = mc::impl::verify(flow, mapping, opts);
      EXPECT_TRUE(r.ok()) << support::to_string(policy) << ": ["
                          << r.violation_kind << "] " << r.violation;
      EXPECT_GE(r.explored, 1u);
      EXPECT_FALSE(r.truncated);
    }
  }
}

TEST(ImplModel, WaitFreeRingTwoWorkersWithinBudget) {
  // Two consumers racing CAS claims on the same ring: bounded exploration
  // must stay violation-free (ok() holds even if the budget truncates).
  const auto flow = independent_flow(2);
  const auto mapping = rt::mapping::round_robin(2);
  auto opts = impl_opts(mc::impl::EngineKind::kCoor,
                        support::WaitPolicy::kBlock);
  opts.queue = coor::QueueKind::kRing;
  opts.max_interleavings = 300;
  const auto r = mc::impl::verify(flow, mapping, opts);
  EXPECT_TRUE(r.ok()) << "[" << r.violation_kind << "] " << r.violation;
  EXPECT_GE(r.explored, 1u);
}

TEST(ImplModel, DroppedNotifyOnRingIsCaughtAsLostWakeup) {
  // Ring doorbell pair: push bumps the version word and must notify a
  // parked consumer. With notifies dropped, a consumer that parks before
  // the push never wakes — the checker must catch it and the witness must
  // replay to the identical violation.
  const auto flow = chain_flow(2);
  const auto mapping = rt::mapping::round_robin(1);
  auto opts = impl_opts(mc::impl::EngineKind::kCoor,
                        support::WaitPolicy::kBlock);
  opts.workers = 1;
  opts.queue = coor::QueueKind::kRing;
  opts.drop_notify = true;
  const auto r = mc::impl::verify(flow, mapping, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.lost_wakeup_free);
  EXPECT_EQ(r.violation_kind, "lost-wakeup");
  ASSERT_FALSE(r.witness.empty());

  const auto replay1 = mc::impl::replay(flow, mapping, opts, r.witness);
  const auto replay2 = mc::impl::replay(flow, mapping, opts, r.witness);
  EXPECT_EQ(replay1.violation_kind, "lost-wakeup");
  EXPECT_EQ(replay1.violation, r.violation);
  EXPECT_EQ(replay2.violation, replay1.violation);
  EXPECT_EQ(replay2.steps, replay1.steps);
}

TEST(ImplModel, DroppedNotifyIsCaughtWithReplayableWitness) {
  // Broken shim: proto::notify becomes a no-op, so under the block policy
  // a waiter that parks before the publish never wakes. Since the doorbell
  // rewrite kRio+kBlock parks on per-worker bells, so this pins the
  // doorbell path: a completer whose ring_doorbell wake is dropped leaves
  // the parked peer stuck. The checker must find the lost wakeup and hand
  // back a schedule that replays to the same violation, deterministically.
  const auto flow = chain_flow(3);
  const auto mapping = rt::mapping::round_robin(2);
  auto opts = impl_opts(mc::impl::EngineKind::kRio,
                        support::WaitPolicy::kBlock);
  opts.drop_notify = true;
  const auto r = mc::impl::verify(flow, mapping, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.lost_wakeup_free);
  EXPECT_EQ(r.violation_kind, "lost-wakeup");
  ASSERT_FALSE(r.witness.empty());

  const auto replay1 = mc::impl::replay(flow, mapping, opts, r.witness);
  const auto replay2 = mc::impl::replay(flow, mapping, opts, r.witness);
  EXPECT_EQ(replay1.violation_kind, "lost-wakeup");
  EXPECT_EQ(replay1.violation, r.violation);
  EXPECT_EQ(replay2.violation, replay1.violation);
  EXPECT_EQ(replay2.steps, replay1.steps);
}

TEST(ImplModel, DroppedNotifyHarmlessUnderSpin) {
  // The same broken shim is invisible to spin-yield waiting (it never
  // parks), so the checker must stay quiet: the bug is policy-specific and
  // the checker must not over-report.
  const auto flow = chain_flow(3);
  const auto mapping = rt::mapping::round_robin(2);
  auto opts = impl_opts(mc::impl::EngineKind::kRio,
                        support::WaitPolicy::kSpinYield);
  opts.drop_notify = true;
  const auto r = mc::impl::verify(flow, mapping, opts);
  EXPECT_TRUE(r.ok()) << "[" << r.violation_kind << "] " << r.violation;
}

TEST(ImplModel, RecoveryVerifiesOnEveryEngine) {
  // Two-phase recovery model: the worker executing crash_task dies right
  // after its body (terminate never published), then the resumed evicted
  // configuration is explored exhaustively. Both phases must hold every
  // property on every engine.
  const auto flow = fork_join_flow();
  const auto mapping = rt::mapping::round_robin(2);
  for (auto engine : {mc::impl::EngineKind::kRio,
                      mc::impl::EngineKind::kRioPruned,
                      mc::impl::EngineKind::kCoor}) {
    auto opts = impl_opts(engine, support::WaitPolicy::kSpinYield);
    opts.recover = true;
    opts.crash_task = 1;  // one of the forked readers
    const auto r = mc::impl::verify(flow, mapping, opts);
    EXPECT_TRUE(r.ok()) << mc::impl::to_string(engine) << ": ["
                        << r.violation_kind << "] " << r.violation;
    EXPECT_GE(r.explored, 2u);  // at least one run per phase
    // Reachable frontiers when reader 1 crashes: {} , {0}, {0,2} — task 3
    // can never terminate before the crash point.
    EXPECT_EQ(r.frontiers, 3u) << mc::impl::to_string(engine);
    EXPECT_FALSE(r.truncated);
  }
}

TEST(ImplModel, RecoveryFrontiersFollowTheChainPrefixes) {
  // A chain serializes termination, so crashing task k admits exactly the
  // k prefixes {}, {0}, ..., {0..k-1} as capturable frontiers.
  const auto flow = chain_flow(5);
  const auto mapping = rt::mapping::round_robin(2);
  auto opts = impl_opts(mc::impl::EngineKind::kRio,
                        support::WaitPolicy::kSpinYield);
  opts.recover = true;
  opts.crash_task = 3;
  const auto r = mc::impl::verify(flow, mapping, opts);
  EXPECT_TRUE(r.ok()) << "[" << r.violation_kind << "] " << r.violation;
  EXPECT_EQ(r.frontiers, 4u);
}

TEST(ImplModel, RecoveryUnderBlockPolicyKeepsWakeupsSound) {
  // The crashed worker rings no further doorbells; phase 1 must classify
  // the survivors' parks as expected loss quiescence (no store happened),
  // while a genuinely dropped notify would still be flagged.
  const auto flow = chain_flow(4);
  const auto mapping = rt::mapping::round_robin(2);
  for (auto engine : {mc::impl::EngineKind::kRio,
                      mc::impl::EngineKind::kRioPruned,
                      mc::impl::EngineKind::kCoor}) {
    auto opts = impl_opts(engine, support::WaitPolicy::kBlock);
    opts.recover = true;
    opts.crash_task = 2;
    const auto r = mc::impl::verify(flow, mapping, opts);
    EXPECT_TRUE(r.ok()) << mc::impl::to_string(engine) << ": ["
                        << r.violation_kind << "] " << r.violation;
    EXPECT_TRUE(r.lost_wakeup_free);
  }
}

TEST(ImplModel, CleanWitnessReplayCompletes) {
  const auto flow = fork_join_flow();
  const auto mapping = rt::mapping::round_robin(2);
  const auto opts = impl_opts(mc::impl::EngineKind::kRioPruned,
                              support::WaitPolicy::kSpinYield);
  // Harvest a complete schedule by replaying an empty exploration first:
  // run verify, then re-execute nothing — instead build the schedule from
  // a fresh verify's behaviour being deterministic.
  const auto r = mc::impl::verify(flow, mapping, opts);
  EXPECT_TRUE(r.ok()) << r.violation;
  EXPECT_TRUE(r.witness.empty());  // no violation, no witness
}

}  // namespace
