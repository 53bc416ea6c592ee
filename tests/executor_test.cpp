// Tests for the persistent executors behind the rio, rio-pruned, coor and
// hybrid backends (src/engine/executor.hpp), driven through Registry::find
// like every consumer. The load-bearing properties:
//   * each executor stays usable after every failure mode — a TaskFailure,
//     a watchdog StallError, a worker crash recovered by run_supervised
//     (which evicts 3 -> 2 workers on the SAME pool threads) — and the next
//     clean run still matches the sequential byte oracle;
//   * two threads calling one backend at once both finish byte-correct,
//     one on the executor's pool and one on the private fallback runtime;
//     a task body re-entering the backend takes the fallback too;
//   * an unpinned launch never runs on a pool thread an earlier pinned
//     launch pinned;
//   * the recycled arenas survive a smaller run between two larger ones;
//   * coor's lifo scheduler still pops LIFO under the default queue (the
//     ring pops FIFO only, so lifo must keep the locked deque).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "engine/registry.hpp"
#include "engine/supervisor.hpp"
#include "rio/rio.hpp"
#include "stf/failure.hpp"
#include "stf/stf.hpp"
#include "support/fault.hpp"

namespace {

using namespace rio;

constexpr std::uint32_t kTasks = 60;
constexpr std::uint32_t kData = 6;

/// Ids of the threads that ran task bodies.
class ThreadLog {
 public:
  void note() {
    std::lock_guard lock(mu_);
    ids_.insert(std::this_thread::get_id());
  }
  std::set<std::thread::id> take() {
    std::lock_guard lock(mu_);
    return std::exchange(ids_, {});
  }

 private:
  std::mutex mu_;
  std::set<std::thread::id> ids_;
};

bool subset_of(const std::set<std::thread::id>& ids,
               const std::set<std::thread::id>& pool) {
  for (const std::thread::id id : ids)
    if (pool.count(id) == 0) return false;
  return true;
}

bool disjoint_from(const std::set<std::thread::id>& ids,
                   const std::set<std::thread::id>& pool) {
  for (const std::thread::id id : ids)
    if (pool.count(id) != 0) return false;
  return true;
}

/// Fold chain: task t folds (t, a neighbour's value) into one object with
/// a non-commutative update, so any ordering or rollback mistake changes
/// the final bytes. `hook(t)` runs at the start of every body.
stf::TaskFlow fold_flow(std::function<void(stf::TaskId)> hook = {},
                        std::uint32_t tasks = kTasks,
                        std::uint32_t num_data = kData) {
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> data;
  for (std::uint32_t d = 0; d < num_data; ++d)
    data.push_back(flow.create_data<std::uint64_t>("d" + std::to_string(d)));
  for (std::uint32_t t = 0; t < tasks; ++t) {
    const auto dst = data[t % num_data];
    const auto src = data[(t + 1) % num_data];
    flow.add("fold" + std::to_string(t),
             [src, dst, t, hook](stf::TaskContext& ctx) {
               if (hook) hook(t);
               const std::uint64_t read =
                   ctx.scalar(src, stf::AccessMode::kRead);
               std::uint64_t& w = ctx.scalar(dst);
               w = w * 6364136223846793005ULL +
                   (read ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
             },
             {stf::read(src), stf::readwrite(dst)});
  }
  return flow;
}

std::vector<std::uint64_t> values(const stf::TaskFlow& flow) {
  std::vector<std::uint64_t> out;
  for (stf::DataId d = 0; d < flow.num_data(); ++d)
    out.push_back(*static_cast<const std::uint64_t*>(flow.registry().raw(d)));
  return out;
}

void zero(const stf::TaskFlow& flow) {
  for (stf::DataId d = 0; d < flow.num_data(); ++d)
    *static_cast<std::uint64_t*>(flow.registry().raw(d)) = 0;
}

std::vector<std::uint64_t> oracle(std::uint32_t tasks = kTasks,
                                  std::uint32_t num_data = kData) {
  stf::TaskFlow flow = fold_flow({}, tasks, num_data);
  stf::SequentialExecutor{}.run(flow);
  return values(flow);
}

engine::Launch launch_for(std::uint32_t workers) {
  engine::Launch launch;
  launch.workers = workers;
  launch.mapping = rt::mapping::round_robin(workers);  // coor/hybrid ignore it
  return launch;
}

const engine::Backend& backend(const char* name) {
  const engine::Backend* b = engine::Registry::instance().find(name);
  EXPECT_NE(b, nullptr) << name;
  return *b;
}

constexpr const char* kExecutorBackends[] = {"rio", "rio-pruned", "coor",
                                             "hybrid"};

/// Runs `workers` independent tasks whose bodies wait for each other, so
/// every task-executing worker of `b` must take one — even coor's, which
/// pop dynamically, and hybrid's, whose default partial mapping makes the
/// first 16 tasks a static phase. Returns the threads that ran them: the
/// executor's worker threads once the call was warm.
std::set<std::thread::id> worker_threads(const engine::Backend& b,
                                         std::uint32_t workers) {
  ThreadLog log;
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<bool> timed_out{false};
  stf::TaskFlow flow;
  for (std::uint32_t t = 0; t < workers; ++t) {
    const auto own = flow.create_data<std::uint64_t>("w" + std::to_string(t));
    flow.add("meet" + std::to_string(t),
             [&, own, workers](stf::TaskContext& ctx) {
               log.note();
               ctx.scalar(own) = 1;
               arrived.fetch_add(1);
               const auto deadline =
                   std::chrono::steady_clock::now() + std::chrono::seconds(30);
               while (arrived.load() < workers) {
                 if (std::chrono::steady_clock::now() > deadline) {
                   timed_out.store(true);
                   return;
                 }
                 std::this_thread::yield();
               }
             },
             {stf::write(own)});
  }
  (void)b.run(stf::FlowImage::compile(flow), launch_for(workers));
  EXPECT_FALSE(timed_out.load()) << "the workers never met";
  std::set<std::thread::id> ids = log.take();
  EXPECT_EQ(ids.size(), workers);
  return ids;
}

TEST(ExecutorReuse, CleanRunsAfterEveryFailureMatchTheOracle) {
  const std::vector<std::uint64_t> want = oracle();
  for (const char* name : kExecutorBackends) {
    SCOPED_TRACE(name);
    const engine::Backend& b = backend(name);
    ThreadLog log;
    stf::TaskFlow flow = fold_flow([&log](stf::TaskId) { log.note(); });
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    const engine::Launch launch = launch_for(3);
    const auto clean_run = [&](const char* after) {
      zero(flow);
      (void)b.run(image, launch);
      EXPECT_EQ(values(flow), want) << "clean run " << after;
    };

    const std::set<std::thread::id> pool = worker_threads(b, 3);
    clean_run("on the warm executor");

    {
      support::FaultPlan plan;
      plan.throw_tasks = {7};
      plan.throw_attempts = 99;  // never stops throwing
      support::FaultInjector injector(plan);
      engine::Launch bad = launch;
      bad.retry.max_attempts = 2;
      bad.fault = &injector;
      zero(flow);
      EXPECT_THROW((void)b.run(image, bad), stf::TaskFailure);
    }
    clean_run("after a TaskFailure");

    {
      support::FaultPlan plan;
      plan.stall_tasks = {20};
      plan.stall_ns = 10'000'000'000ull;  // far beyond the window
      support::FaultInjector injector(plan);
      engine::Launch bad = launch;
      bad.fault = &injector;
      bad.watchdog_ns = 200'000'000ull;
      zero(flow);
      EXPECT_THROW((void)b.run(image, bad), stf::StallError);
    }
    clean_run("after a StallError");

    {
      support::FaultPlan plan;
      plan.crash_tasks = {9};
      plan.max_crashes = 1;
      support::FaultInjector injector(plan);
      engine::Launch bad = launch;
      bad.fault = &injector;
      zero(flow);
      const engine::Outcome out = engine::run_supervised(b, image, bad);
      EXPECT_EQ(out.evictions, 1u);
      EXPECT_EQ(values(flow), want) << "supervised run";
    }
    clean_run("after an eviction");

    // Every run above — the 2-worker resumed attempt included — ran its
    // bodies on the warm executor's worker threads: the pool was never
    // rebuilt.
    EXPECT_TRUE(subset_of(log.take(), pool));
    EXPECT_EQ(worker_threads(b, 3), pool);
  }
}

TEST(ExecutorReuse, SmallerRunBetweenLargerRunsMatchesTheOracle) {
  // Resident per-data state only grows (rio's sync words and replicas,
  // also inside hybrid's phase runtime): a run must reset exactly what it
  // uses, and a larger run after a smaller one must not see the smaller
  // run's leftovers. coor rebuilds its task nodes per run; the ring is
  // sized to each run's task count.
  constexpr std::uint32_t kLarge = 16384, kSmall = 4096;
  constexpr std::uint32_t kLargeData = 64, kSmallData = 8;
  const std::vector<std::uint64_t> want_large = oracle(kLarge, kLargeData);
  const std::vector<std::uint64_t> want_small = oracle(kSmall, kSmallData);
  for (const char* name : kExecutorBackends) {
    SCOPED_TRACE(name);
    const engine::Backend& b = backend(name);
    const engine::Launch launch = launch_for(3);
    for (const std::uint32_t tasks : {kLarge, kSmall, kLarge}) {
      const bool large = tasks == kLarge;
      stf::TaskFlow flow =
          fold_flow({}, tasks, large ? kLargeData : kSmallData);
      (void)b.run(stf::FlowImage::compile(flow), launch);
      EXPECT_EQ(values(flow), large ? want_large : want_small)
          << tasks << " tasks";
    }
  }
}

TEST(ExecutorConcurrency, ConcurrentCallersOneTakesTheFallback) {
  const std::vector<std::uint64_t> want = oracle();
  for (const char* name : kExecutorBackends) {
    SCOPED_TRACE(name);
    const engine::Backend& b = backend(name);
    const engine::Launch launch = launch_for(2);
    const std::set<std::thread::id> pool = worker_threads(b, 2);

    // Task 0 of each run waits until task 0 of the other run started, so
    // both runs are provably in flight at once. A backend that serialized
    // its callers would time out here instead of finishing.
    std::atomic<int> arrived{0};
    std::atomic<bool> timed_out{false};
    const auto rendezvous = [&](stf::TaskId t) {
      if (t != 0) return;
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (arrived.load() < 2) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          return;
        }
        std::this_thread::yield();
      }
    };
    ThreadLog log_a, log_b;
    stf::TaskFlow flow_a = fold_flow([&](stf::TaskId t) {
      log_a.note();
      rendezvous(t);
    });
    stf::TaskFlow flow_b = fold_flow([&](stf::TaskId t) {
      log_b.note();
      rendezvous(t);
    });
    const stf::FlowImage image_a = stf::FlowImage::compile(flow_a);
    const stf::FlowImage image_b = stf::FlowImage::compile(flow_b);
    std::atomic<int> errors{0};
    const auto call = [&](const stf::FlowImage& image) {
      try {
        (void)b.run(image, launch);
      } catch (...) {
        errors.fetch_add(1);
      }
    };
    std::thread ta(call, std::cref(image_a));
    std::thread tb(call, std::cref(image_b));
    ta.join();
    tb.join();

    EXPECT_EQ(errors.load(), 0);
    EXPECT_FALSE(timed_out.load()) << "the two runs never overlapped";
    EXPECT_EQ(values(flow_a), want);
    EXPECT_EQ(values(flow_b), want);
    const std::set<std::thread::id> a = log_a.take();
    const std::set<std::thread::id> b_ids = log_b.take();
    const bool a_on_pool = subset_of(a, pool) && disjoint_from(b_ids, pool);
    const bool b_on_pool = subset_of(b_ids, pool) && disjoint_from(a, pool);
    EXPECT_TRUE(a_on_pool != b_on_pool)
        << "exactly one caller must run on the pool, the other on the "
           "fallback runtime";
  }
}

TEST(ExecutorConcurrency, ReentrantCallTakesTheFallback) {
  const std::vector<std::uint64_t> want = oracle();
  for (const char* name : kExecutorBackends) {
    SCOPED_TRACE(name);
    const engine::Backend& b = backend(name);
    const engine::Launch launch = launch_for(2);
    const std::set<std::thread::id> pool = worker_threads(b, 2);
    ThreadLog inner_log;
    stf::TaskFlow inner =
        fold_flow([&inner_log](stf::TaskId) { inner_log.note(); });
    const stf::FlowImage inner_image = stf::FlowImage::compile(inner);
    std::atomic<int> errors{0};
    stf::TaskFlow outer = fold_flow([&](stf::TaskId t) {
      if (t != 0) return;
      try {
        (void)b.run(inner_image, launch);  // executor busy: falls back
      } catch (...) {
        errors.fetch_add(1);
      }
    });
    (void)b.run(stf::FlowImage::compile(outer), launch);
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(values(inner), want);
    EXPECT_EQ(values(outer), want);
    EXPECT_TRUE(disjoint_from(inner_log.take(), pool))
        << "a re-entrant call ran on the busy executor's pool";
  }
}

#if defined(__linux__)
int affinity_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}
#endif

TEST(ExecutorPinning, UnpinnedLaunchNeverRunsOnAPinnedThread) {
#if defined(__linux__)
  const int all = affinity_count();
  ASSERT_GT(all, 0);
  for (const char* name : kExecutorBackends) {
    SCOPED_TRACE(name);
    const engine::Backend& b = backend(name);
    engine::Launch pinned = launch_for(2);
    pinned.pin_workers = true;
    stf::TaskFlow first = fold_flow();
    (void)b.run(stf::FlowImage::compile(first), pinned);

    std::atomic<int> narrowest{all};
    stf::TaskFlow second = fold_flow([&](stf::TaskId) {
      const int n = affinity_count();
      int seen = narrowest.load();
      while (n < seen && !narrowest.compare_exchange_weak(seen, n)) {
      }
    });
    (void)b.run(stf::FlowImage::compile(second), launch_for(2));
    EXPECT_EQ(narrowest.load(), all)
        << "an unpinned run executed on a thread pinned by the previous run";
  }
#else
  GTEST_SKIP() << "thread affinity is only observable on Linux";
#endif
}

TEST(ExecutorScheduling, LifoPopsLifoUnderTheDefaultQueue) {
  // One worker; tasks 1..k all read what task 0 writes. While task 0's body
  // sleeps, the master registers every edge, so completing task 0 pushes
  // 1..k in order and the worker pops them back in reverse — unless lifo
  // were routed to the FIFO-only ring. Should the master be descheduled
  // past the sleep, an early dispatch breaks the reversal, so a few
  // attempts are allowed; FIFO order could never pass.
  constexpr std::uint32_t k = 8;
  const engine::Backend& b = backend("coor");
  engine::Launch launch;  // default queue
  launch.workers = 1;
  launch.scheduler = coor::SchedulerKind::kLifo;
  std::vector<stf::TaskId> want(k);
  for (std::uint32_t i = 0; i < k; ++i) want[i] = k - i;
  std::vector<stf::TaskId> order;
  for (int attempt = 0; attempt < 5 && order != want; ++attempt) {
    order.clear();
    stf::TaskFlow flow;
    const auto x = flow.create_data<std::uint64_t>("x");
    flow.add("gate",
             [x](stf::TaskContext& ctx) {
               std::this_thread::sleep_for(std::chrono::milliseconds(20));
               ctx.scalar(x) = 1;
             },
             {stf::write(x)});
    for (std::uint32_t t = 1; t <= k; ++t) {
      const auto own = flow.create_data<std::uint64_t>("y" + std::to_string(t));
      flow.add("reader" + std::to_string(t),
               [&order, x, own, t](stf::TaskContext& ctx) {
                 order.push_back(t);  // one worker: no race
                 ctx.scalar(own) = ctx.scalar(x, stf::AccessMode::kRead) + t;
               },
               {stf::read(x), stf::write(own)});
    }
    (void)b.run(stf::FlowImage::compile(flow), launch);
  }
  EXPECT_EQ(order, want) << "lifo did not pop the last-dispatched task first";
}

}  // namespace
