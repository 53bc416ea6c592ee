// Unit tests for the support substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "support/align.hpp"
#include "support/clock.hpp"
#include "support/format.hpp"
#include "support/inline_vec.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/wait.hpp"

namespace {

using namespace rio::support;

// ---------------------------------------------------------------- align ----

TEST(Align, CacheAlignedIsolatesLines) {
  AlignedAtomic<std::uint64_t> arr[4];
  for (int i = 0; i < 4; ++i) arr[i].value.store(i);
  for (int i = 1; i < 4; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i - 1]);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i]);
    EXPECT_GE(b - a, kCacheLineSize);
    EXPECT_EQ(b % kCacheLineSize, 0u);
  }
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForEqualSeeds) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BoundedZeroIsZero) {
  Xoshiro256 rng(3);
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

// ----------------------------------------------------------------- wait ----

class WaitPolicyTest : public ::testing::TestWithParam<WaitPolicy> {};

TEST_P(WaitPolicyTest, WaitObservesCrossThreadStore) {
  std::atomic<std::uint64_t> word{0};
  std::thread setter([&] {
    for (int i = 0; i < 100; ++i) cpu_pause();
    store_and_notify<std::uint64_t>(word, 42, GetParam());
  });
  wait_until_equal<std::uint64_t>(word, 42, GetParam());
  EXPECT_EQ(word.load(), 42u);
  setter.join();
}

TEST_P(WaitPolicyTest, AlreadySatisfiedReturnsImmediately) {
  std::atomic<std::uint64_t> word{7};
  wait_until_equal<std::uint64_t>(word, 7, GetParam());
  EXPECT_EQ(word.load(), 7u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WaitPolicyTest,
                         ::testing::Values(WaitPolicy::kSpinYield,
                                           WaitPolicy::kBlock),
                         [](const auto& i) {
                           return i.param == WaitPolicy::kSpinYield
                                      ? "SpinYield"
                                      : "Block";
                         });

// The spin phase is bounded per check and in wall time: every check interval
// pauses at most kBurst times, and the phase lasts at least the budget (the
// budget starts at the first clock read, inside the timed window) and then
// ends for good.
TEST(Backoff, SpinPhaseEventuallyEnds) {
  Backoff b;
  std::uint64_t checks = 0;
  const std::uint64_t t0 = monotonic_ns();
  while (const std::uint32_t pauses = b.spin()) {
    ASSERT_LE(pauses, Backoff::kBurst);
    ++checks;
  }
  const std::uint64_t elapsed = monotonic_ns() - t0;
  EXPECT_GE(elapsed, Backoff::kSpinBudgetNs);
  EXPECT_LT(elapsed, std::uint64_t{1'000'000'000});
  EXPECT_GE(checks, std::uint64_t{Backoff::kClockStride});
  EXPECT_EQ(b.spin(), 0u);
  EXPECT_EQ(b.spin(), 0u);
}

// ------------------------------------------------------------ inline_vec ---

TEST(InlineVec, StaysInlineUpToN) {
  InlineVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
}

TEST(InlineVec, SpillsToHeapBeyondN) {
  InlineVec<int, 4> v;
  for (int i = 0; i < 9; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  for (int i = 0; i < 9; ++i) EXPECT_EQ(v[i], i);
}

TEST(InlineVec, CopyPreservesContents) {
  InlineVec<std::string, 2> v{"a", "b", "c"};
  InlineVec<std::string, 2> w(v);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], "a");
  EXPECT_EQ(w[2], "c");
  EXPECT_EQ(v.size(), 3u);  // source untouched
}

TEST(InlineVec, MoveStealsHeapBuffer) {
  InlineVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  const int* buf = v.data();
  InlineVec<int, 2> w(std::move(v));
  EXPECT_EQ(w.data(), buf);
  EXPECT_EQ(w.size(), 10u);
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, MoveInlineCopiesElements) {
  InlineVec<std::string, 4> v{"x", "y"};
  InlineVec<std::string, 4> w(std::move(v));
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], "x");
}

TEST(InlineVec, InitializerListAndIteration) {
  InlineVec<int, 4> v{1, 2, 3};
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 6);
}

TEST(InlineVec, ClearDestroysAndReusable) {
  InlineVec<std::string, 2> v{"hello", "world", "spill"};
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back("again");
  EXPECT_EQ(v[0], "again");
}

TEST(InlineVec, CopyAssignReplaces) {
  InlineVec<int, 2> a{1, 2, 3};
  InlineVec<int, 2> b{9};
  b = a;
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], 3);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, BucketsSumAndAdd) {
  TimeBuckets a{10, 20, 30};
  TimeBuckets b{1, 2, 3};
  EXPECT_EQ(a.total(), 60u);
  const TimeBuckets c = a + b;
  EXPECT_EQ(c.task_ns, 11u);
  EXPECT_EQ(c.idle_ns, 22u);
  EXPECT_EQ(c.runtime_ns, 33u);
}

TEST(Stats, RunStatsCumulative) {
  RunStats rs;
  rs.workers.resize(3);
  for (int w = 0; w < 3; ++w) {
    rs.workers[w].buckets = {100, 10, 1};
    rs.workers[w].tasks_executed = 5;
  }
  EXPECT_EQ(rs.cumulative().total(), 333u);
  EXPECT_EQ(rs.tasks_executed(), 15u);
  EXPECT_EQ(rs.num_workers(), 3u);
}

// ---------------------------------------------------------------- clock ----

TEST(Clock, MonotonicAdvances) {
  const auto a = monotonic_ns();
  const auto b = monotonic_ns();
  EXPECT_GE(b, a);
}

TEST(Clock, ScopedTimerAccumulates) {
  std::uint64_t sink = 0;
  {
    ScopedTimer t(sink);
    volatile int x = 0;
    for (int i = 0; i < 100000; ++i) x = i;
    (void)x;
  }
  EXPECT_GT(sink, 0u);
}

TEST(Clock, StopwatchElapsed) {
  Stopwatch sw;
  volatile int x = 0;
  for (int i = 0; i < 100000; ++i) x = i;
  (void)x;
  EXPECT_GT(sw.elapsed_ns(), 0u);
  EXPECT_NEAR(sw.elapsed_s(), static_cast<double>(sw.elapsed_ns()) * 1e-9,
              1e-3);
}

// --------------------------------------------------------------- format ----

TEST(Format, TableAlignsAndCounts) {
  Table t({"name", "value"});
  t.row().str("alpha").num(1.5, 2);
  t.row().str("b").integer(42);
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Format, CsvEmitsHeaderAndRows) {
  Table t({"a", "b"});
  t.row().integer(1).integer(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Format, DurationUnits) {
  EXPECT_EQ(format_duration_ns(500), "500.00 ns");
  EXPECT_EQ(format_duration_ns(1500), "1.50 us");
  EXPECT_EQ(format_duration_ns(2.5e6), "2.50 ms");
  EXPECT_EQ(format_duration_ns(3.2e9), "3.20 s");
}

}  // namespace
