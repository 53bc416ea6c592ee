#include "coor/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/clock.hpp"
#include "support/topology.hpp"
#include "support/align.hpp"
#include "support/watchdog.hpp"
#include "coor/ready_queue.hpp"
#include "coor/ready_ring.hpp"
#include "coor/sync_ops.hpp"
#include "stf/access_guard.hpp"
#include "stf/dep_scanner.hpp"
#include "stf/failure.hpp"
#include "stf/resilience.hpp"

namespace rio::coor {
namespace detail {

/// A 4-byte lock word (0 free, 1 held) for critical sections a few stores
/// long, so a waiter yields instead of parking. BasicLockable, so
/// std::lock_guard takes it; mc::impl models it as one lock word with the
/// same scopes.
struct WordLock {
  std::atomic<std::uint32_t> word{0};
  void lock() noexcept {
    while (word.exchange(1, std::memory_order_acquire) != 0)
      while (word.load(std::memory_order_relaxed) != 0)
        std::this_thread::yield();
  }
  void unlock() noexcept { word.store(0, std::memory_order_release); }
};

/// Per-task dependency bookkeeping. One node per task for the whole range —
/// the linear-space structure the paper contrasts with RIO's O(data)
/// footprint. Indexed by the task's position WITHIN the range. Each run
/// builds its nodes afresh in deque chunks: one flat array, resident or per
/// run, measured no faster and made the calling thread's later allocations
/// slower through the allocator's heap trimming (docs/perf.md).
struct TaskNode {
  // Unresolved predecessor count, +1 discovery guard held by the master
  // while it registers edges. The task becomes ready when this hits zero.
  std::atomic<std::int32_t> remaining{1};
  WordLock mu;  // guards finished + successors
  std::vector<std::size_t> successors;  // local indices
  // Wait-cause provenance: the task whose complete() made this one ready
  // (kNoTask when the master dispatched it). Written by the dispatching
  // thread before the queue push, read after the pop — the queue's own
  // synchronization orders the plain accesses.
  std::uint64_t dispatcher = obs::kNoTask;
  bool finished = false;
};
static_assert(sizeof(void*) != 8 || sizeof(TaskNode) == 48,
              "a task node is 48 bytes on LP64 targets");

}  // namespace detail

namespace {

using detail::TaskNode;

struct Engine {
  stf::ImageRange range;  // cheap view; the backing FlowImage outlives us
  const engine::Launch& cfg;
  std::deque<TaskNode> nodes;  // one per task of the range
  std::deque<ReadyQueue> queues;  // 1 (central) or workers (locality)
  // Wait-free central queue (ready_ring.hpp), engaged for queue == kRing in
  // fifo mode only: a ring pops FIFO, so lifo, priority and locality keep
  // the locked queues whatever the queue knob says.
  std::optional<ReadyRing> ring;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> sync_stamp{0};
  stf::AccessGuard guard;
  // First failure wins; after cancellation remaining bodies are skipped
  // while completion bookkeeping continues, so the run drains cleanly.
  std::atomic<bool> cancelled{false};
  // Set only by a firing watchdog: makes injected stalls give up and lets
  // the run tear down with completed < n.
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  stf::DeathBoard deaths;  // crash blotter; observed by the tripwire
  bool watched = false;    // effective (crash-armed forces a watchdog)

  void record_failure(std::exception_ptr error) {
    std::lock_guard lock(error_mu);
    if (!first_error) first_error = std::move(error);
    cancelled.store(true, std::memory_order_release);
  }
  // Per-data exclusivity locks for commuting reductions: the dependency
  // scanner puts NO edges between members of a reduction run, so the OoO
  // workers may pick them in any order — but one at a time per object.
  std::vector<support::AlignedAtomic<std::uint32_t>>& reduction_locks;

  Engine(const stf::ImageRange& r, const engine::Launch& c,
         std::vector<support::AlignedAtomic<std::uint32_t>>& locks)
      : range(r), cfg(c), nodes(r.size()), reduction_locks(locks) {
    const std::size_t n = r.size();
    const std::size_t nd = r.num_data();
    if (reduction_locks.size() < nd) {
      reduction_locks =
          std::vector<support::AlignedAtomic<std::uint32_t>>(nd);
    } else {
      for (std::size_t d = 0; d < nd; ++d)
        reduction_locks[d].value.store(0, std::memory_order_relaxed);
    }
    if (c.queue == QueueKind::kRing && c.scheduler == SchedulerKind::kFifo) {
      ring.emplace(std::max<std::size_t>(n, 1),
                   [](std::atomic<std::uint64_t>& w, std::uint64_t v) {
                     w.store(v, std::memory_order_relaxed);
                   });
    } else {
      const std::size_t nq =
          c.scheduler == SchedulerKind::kLocality ? c.workers : 1;
      const bool prioritized = c.scheduler == SchedulerKind::kPriority;
      for (std::size_t q = 0; q < nq; ++q) queues.emplace_back(prioritized);
    }
    if (cfg.enable_guard) guard.enable(r.num_data());
  }

  /// Watchdog abort flag for ring pops (nullptr when unwatched, so the
  /// block policy may park; see pop_blocking's degradation contract).
  [[nodiscard]] const std::atomic<bool>* pop_abort() const noexcept {
    return watched ? &aborted : nullptr;
  }

  void close_queues() {
    if (ring) ring->close(cfg.wait_policy);
    for (auto& q : queues) q.close();
  }

  /// Acquires the reduction locks of `task` in ascending data order (no
  /// deadlock) and returns the locked ids; no-op for reduction-free tasks.
  void lock_reductions(const stf::Task& task,
                       std::vector<stf::DataId>& locked) {
    locked.clear();
    for (const stf::Access& a : task.accesses)
      if (is_reduction(a.mode)) locked.push_back(a.data);
    std::sort(locked.begin(), locked.end());
    for (stf::DataId d : locked) {
      auto& word = reduction_locks[d].value;
      std::uint32_t expected = 0;
      while (!word.compare_exchange_weak(expected, 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        expected = 0;
        std::this_thread::yield();
      }
    }
  }

  void unlock_reductions(const std::vector<stf::DataId>& locked) {
    for (auto it = locked.rbegin(); it != locked.rend(); ++it)
      reduction_locks[*it].value.store(0, std::memory_order_release);
  }

  /// Deterministic home queue of a task in locality mode: follow the first
  /// data object the task touches, so tasks sharing data land on the same
  /// worker; round-robin for data-less tasks.
  [[nodiscard]] std::size_t home_queue(std::size_t li) const {
    if (queues.size() == 1) return 0;
    if (range.num_accesses(li) == 0) return li % queues.size();
    return range.acc_begin(li)->data % queues.size();
  }

  /// Returns true when the push actually woke a parked/blocked consumer
  /// (a syscall was issued) — the kWakeupsIssued / kWakeupsElided feed.
  bool dispatch(std::size_t li) {
    if (ring) return ring->push(li, cfg.wait_policy);
    return queues[home_queue(li)].push(li,
                                       cfg.scheduler == SchedulerKind::kLifo,
                                       range.priority(li));
  }

  struct DispatchTally {
    std::size_t dispatched = 0;  ///< successors made ready (queue pushes)
    std::size_t woke = 0;        ///< of those, pushes that issued a wake
  };

  /// Worker-side completion: mark finished, release registered successors.
  DispatchTally complete(std::size_t li) {
    std::vector<std::size_t> succs;
    {
      std::lock_guard lock(nodes[li].mu);
      nodes[li].finished = true;
      succs.swap(nodes[li].successors);
    }
    DispatchTally tally;
    for (std::size_t s : succs) {
      if (dep_release(nodes[s].remaining)) {
        nodes[s].dispatcher = static_cast<std::uint64_t>(range.task(li).id);
        if (dispatch(s)) ++tally.woke;
        ++tally.dispatched;
      }
    }
    if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        range.size()) {
      done.store(true, std::memory_order_release);
      close_queues();
    }
    return tally;
  }

  /// Pops the next task for worker w, stealing if configured. Returns
  /// nullopt when the range is fully executed; `stole` reports whether the
  /// pop came from another worker's queue (the kSteal phase).
  std::optional<stf::TaskId> next_task(std::uint32_t w, bool& stole,
                                       std::uint64_t* spins) {
    stole = false;
    if (ring) return ring->pop_blocking(cfg.wait_policy, pop_abort(), spins);
    if (queues.size() == 1) return queues[0].pop();
    // Locality mode: own queue first, then (optionally) steal, then block
    // briefly on the own queue again.
    for (;;) {
      if (auto t = queues[w].try_pop()) return t;
      if (cfg.work_stealing) {
        for (std::size_t off = 1; off < queues.size(); ++off) {
          if (auto t = queues[(w + off) % queues.size()].try_steal()) {
            stole = true;
            return t;
          }
        }
      }
      if (done.load(std::memory_order_acquire)) {
        // Drain one last time: a final dispatch may have raced `done`.
        if (auto t = queues[w].try_pop()) return t;
        if (cfg.work_stealing) {
          for (std::size_t off = 1; off < queues.size(); ++off) {
            if (auto t = queues[(w + off) % queues.size()].try_steal()) {
              stole = true;
              return t;
            }
          }
        }
        return std::nullopt;
      }
      std::this_thread::yield();
    }
  }
};

}  // namespace

Runtime::Runtime(engine::Launch launch) { configure(launch); }

void Runtime::configure(const engine::Launch& launch) {
  RIO_ASSERT_MSG(launch.workers > 0, "need at least one worker");
  cfg_ = launch;
}

support::RunStats Runtime::run(const stf::TaskFlow& flow) {
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  return run(stf::ImageRange(image));
}

support::RunStats Runtime::run(const stf::FlowImage& image) {
  return run(stf::ImageRange(image));
}

support::RunStats Runtime::run(const stf::ImageRange& range) {
  Engine eng(range, cfg_, reduction_locks_);
  const std::uint32_t p = cfg_.workers;
  const std::size_t n = range.size();

  support::RunStats stats;
  stats.workers.resize(p + 1);  // + master
  std::vector<std::vector<stf::TraceEvent>> traces(p);
  std::vector<std::vector<stf::SyncEvent>> syncs(p);
  std::vector<std::uint64_t> worker_wall(p, 0);

  // Crash-armed plans force a watchdog (same contract as rt::launch): a
  // worker death must escalate as stf::WorkerLost, never hang the run.
  const bool crash_armed =
      cfg_.fault != nullptr && cfg_.fault->plan().crash_armed();
  const std::uint64_t watchdog_ns =
      cfg_.watchdog_ns > 0 ? cfg_.watchdog_ns
                           : (crash_armed ? 100'000'000ULL : 0);
  const bool watched = watchdog_ns > 0;
  eng.watched = watched;
  std::vector<support::WorkerProbe> probes(watched ? p : 0);
  stf::ResilienceOpts res_proto;
  res_proto.retry = cfg_.retry;
  res_proto.fault = cfg_.fault;
  res_proto.abort = watched ? &eng.aborted : nullptr;
  const bool resilient = res_proto.active();

  // Telemetry lenses: worker slots 0..p-1 plus the master at slot p.
  if (cfg_.obs != nullptr) cfg_.obs->ensure_workers(p + 1);
  std::vector<obs::WorkerObs> obses(p + 1);
  for (std::uint32_t w = 0; w <= p; ++w) obses[w].bind(cfg_.obs, w);

  std::barrier start(static_cast<std::ptrdiff_t>(p) + 1);

  // Worker role (pool/thread indices 0..p-1).
  const std::uint32_t cpus = support::detect_topology().logical_cpus;
  const auto worker_body = [&](std::uint32_t w) {
      if (cfg_.pin_workers) support::pin_current_thread(w % cpus);
      support::WorkerStats& st = stats.workers[w];
      std::vector<stf::DataId> locked_reductions;
      support::WorkerProbe* probe = watched ? &probes[w] : nullptr;
      stf::ResilienceOpts res = res_proto;  // worker-private copy
      stf::DataSnapshot snapshot;
      std::uint32_t checkpoint_pending = 0;
      obs::WorkerObs& ob = obses[w];
      res.obs = &ob;
      const bool timed =
          cfg_.collect_stats || cfg_.collect_trace || ob.recording();
      start.arrive_and_wait();
      const std::uint64_t begin = support::monotonic_ns();
      for (;;) {
        std::uint64_t idle0 = 0;
        if (timed) idle0 = support::monotonic_ns();
        if (probe != nullptr) probe->set_state(support::ProbeState::kWaiting);
        bool stole = false;
        auto li = eng.next_task(w, stole, &ob.spin_iters);
        if (timed) {
          // Every pop — including the final empty one — is wait time; a
          // successful steal is attributed to the kSteal phase instead.
          // A popped task's queue-wait cause is its dispatcher: the
          // predecessor whose complete() made it ready (kNoTask when the
          // master dispatched it or the queue closed empty).
          const std::uint64_t id =
              li ? static_cast<std::uint64_t>(range.task(*li).id) : obs::kNoTask;
          const std::uint64_t cause =
              li ? obs::make_cause(eng.nodes[*li].dispatcher) : obs::kNoCause;
          ob.span(stole ? obs::Phase::kSteal : obs::Phase::kAcquireWait, id,
                  idle0, support::monotonic_ns(), cause);
        }
        if (cfg_.collect_stats) ++st.waits;
        if (!li) break;
        ob.count(obs::Counter::kQueuePops);
        if (stole) ob.count(obs::Counter::kSteals);

        const stf::Task& task = range.task(*li);
        if (probe != nullptr) {
          probe->task.store(task.id, std::memory_order_relaxed);
          probe->set_state(support::ProbeState::kExecuting);
        }
        eng.lock_reductions(task, locked_reductions);
        // Acquire stamps are drawn after the pop (every predecessor already
        // published its releases) and after the reduction locks are held.
        if (cfg_.collect_sync) {
          for (const stf::Access& a : task.accesses)
            syncs[w].push_back(
                {task.id, w, a.data, a.mode, stf::SyncKind::kAcquire,
                 eng.sync_stamp.fetch_add(1, std::memory_order_acq_rel)});
        }
        if (cfg_.enable_guard)
          for (const stf::Access& a : task.accesses) eng.guard.acquire(a);
        // Resume replay: the task completed in a previous attempt — keep
        // the dependency bookkeeping (complete() below) but skip the body,
        // fault injection and checkpoint mark.
        const bool replay =
            cfg_.resume != nullptr && cfg_.resume->done(task.id);
        bool body_ok = !replay;
        bool crashed = false;
        std::uint64_t t0 = 0, t1 = 0;
        if (timed) t0 = support::monotonic_ns();
        if (replay) {
          ob.count(obs::Counter::kTasksReplayed);
        } else if (resilient) {
          if (!eng.cancelled.load(std::memory_order_acquire)) {
            // Rollback is race-free here: the task holds exclusive protocol
            // ownership of its written data between the pop and complete().
            stf::BodyResult r =
                stf::execute_body(task, range.registry(), w, res, snapshot);
            if (r.crashed) {
              crashed = true;
            } else if (!r.ok) {
              body_ok = false;
              eng.record_failure(std::move(r.error));
            }
          } else {
            body_ok = false;
          }
        } else if (task.fn && !eng.cancelled.load(std::memory_order_acquire)) {
          stf::TaskContext ctx(task, range.registry(), w);
          try {
            task.fn(ctx);
          } catch (...) {
            body_ok = false;
            eng.record_failure(std::current_exception());
          }
        } else if (eng.cancelled.load(std::memory_order_acquire)) {
          body_ok = false;
        }
        if (timed) {
          t1 = support::monotonic_ns();
          ob.span(obs::Phase::kBody, task.id, t0, t1);
        }
        if (cfg_.enable_guard)
          for (const stf::Access& a : task.accesses) eng.guard.release(a);

        if (crashed) {
          // Permanent worker death: release the reduction locks (a peer
          // spinning on one has no abort path), record the dirty spans, and
          // never call complete() — the task's successors stay blocked
          // until the tripwire aborts the run.
          eng.unlock_reductions(locked_reductions);
          stf::DeathRecord d;
          d.worker = w;
          d.task = task.id;
          d.dirty = std::move(snapshot);
          eng.deaths.record(std::move(d));
          break;
        }

        // Checkpoint mark: after the body succeeded, before complete()
        // publishes the task to its successors.
        if (cfg_.checkpoint != nullptr && body_ok) {
          cfg_.checkpoint->mark(task.id);
          cfg_.checkpoint->note_completion(checkpoint_pending);
        }
        // Release stamps precede both the reduction unlock and complete(),
        // the two publications that can admit a successor.
        if (cfg_.collect_sync) {
          for (const stf::Access& a : task.accesses)
            syncs[w].push_back(
                {task.id, w, a.data, a.mode, stf::SyncKind::kRelease,
                 eng.sync_stamp.fetch_add(1, std::memory_order_acq_rel)});
        }
        eng.unlock_reductions(locked_reductions);
        if (cfg_.collect_trace)
          traces[w].push_back(
              {task.id, w, t0, t1,
               eng.seq.fetch_add(1, std::memory_order_relaxed)});
        const Engine::DispatchTally tally = eng.complete(*li);
        if (timed)
          ob.span(obs::Phase::kRelease, task.id, t1, support::monotonic_ns());
        if (tally.dispatched > 0) {
          ob.count(obs::Counter::kQueuePushes, tally.dispatched);
          ob.count(obs::Counter::kWakeups, tally.dispatched);
          ob.count(obs::Counter::kWakeupsIssued, tally.woke);
          ob.count(obs::Counter::kWakeupsElided, tally.dispatched - tally.woke);
        }
        ob.count(obs::Counter::kTasksExecuted);
        if (probe != nullptr)
          probe->progress.fetch_add(1, std::memory_order_relaxed);
        if (cfg_.collect_stats) ++st.tasks_executed;
      }
      if (probe != nullptr) probe->set_state(support::ProbeState::kDone);
      worker_wall[w] = support::monotonic_ns() - begin;
  };

  // ---- master role (pool/thread index p): unroll + dispatch --------------
  std::uint64_t master_begin = 0, master_unroll_end = 0;
  const auto master_body = [&] {
    if (cfg_.pin_workers) support::pin_current_thread(p % cpus);
    obs::WorkerObs& ob = obses[p];
    std::uint64_t master_dispatches = 0;
    std::uint64_t master_wakes = 0;
    start.arrive_and_wait();
    master_begin = support::monotonic_ns();
    {
    // Incremental dependency discovery through the shared scanner — the
    // same rules as DependencyGraph, paid one task at a time (cost model
    // (1)'s serialized management work). Ids are range-local indices.
    stf::DependencyScanner scanner(range.num_data());
    std::vector<stf::TaskId> preds;

    for (std::size_t li = 0; li < n; ++li) {
      // Flat-array scan: the master never touches a Task record while
      // unrolling — only the image's dense access spans.
      scanner.next(range.acc_begin(li), range.acc_end(li), li, preds);

      for (std::size_t prev : preds) {
        std::lock_guard lock(eng.nodes[prev].mu);
        if (!eng.nodes[prev].finished) {
          eng.nodes[prev].successors.push_back(li);
          dep_retain(eng.nodes[li].remaining);
        }
      }
      // Drop the discovery guard; dispatch if all predecessors done.
      if (dep_release(eng.nodes[li].remaining)) {
        if (eng.dispatch(li)) ++master_wakes;
        ++master_dispatches;
      }
    }
    }
    if (n == 0) {
      // Nothing will ever complete: release the workers directly.
      eng.done.store(true, std::memory_order_release);
      eng.close_queues();
    }
    master_unroll_end = support::monotonic_ns();
    // The whole unroll is one management span on the master's track.
    if (cfg_.collect_stats || cfg_.collect_trace || ob.recording())
      ob.span(obs::Phase::kMgmt, obs::kNoTask, master_begin,
              master_unroll_end);
    if (master_dispatches > 0) {
      ob.count(obs::Counter::kQueuePushes, master_dispatches);
      ob.count(obs::Counter::kWakeups, master_dispatches);
      ob.count(obs::Counter::kWakeupsIssued, master_wakes);
      ob.count(obs::Counter::kWakeupsElided,
               master_dispatches - master_wakes);
    }
  };

  // Progress watchdog: global completion count frozen for the whole window
  // with tasks outstanding means the run is stuck (a worker wedged in a
  // stalled body, or a lost dispatch). Capture the diagnostic first, then
  // cancel + abort + release every queue so the workers drain and exit.
  std::optional<support::Watchdog> watchdog;
  if (watched) {
    watchdog.emplace(
        watchdog_ns,
        [&eng, hub = cfg_.obs]() noexcept {
          if (hub != nullptr)
            hub->global_counters().add(obs::Counter::kWatchdogProbes);
          return eng.completed.load(std::memory_order_relaxed);
        },
        [&] {
          if (cfg_.obs != nullptr) {
            const std::uint64_t now = support::monotonic_ns();
            for (std::uint32_t w = 0; w < p; ++w)
              cfg_.obs->instant(
                  {now, now, probes[w].task.load(std::memory_order_relaxed), w,
                   obs::Phase::kStallSnapshot});
          }
          std::ostringstream os;
          os << "coor: no progress for "
             << static_cast<double>(watchdog_ns) / 1e6 << " ms\n"
             << "  completed " << eng.completed.load(std::memory_order_relaxed)
             << " of " << n << " tasks\n";
          if (eng.ring)
            os << "  ring: depth=" << eng.ring->size() << "\n";
          for (std::size_t q = 0; q < eng.queues.size(); ++q)
            os << "  queue " << q << ": depth=" << eng.queues[q].size() << "\n";
          for (std::uint32_t w = 0; w < p; ++w) {
            const support::WorkerProbe& pr = probes[w];
            const support::ProbeState ps = pr.get_state();
            os << "  worker " << w << ": " << support::to_string(ps)
               << ", executed=" << pr.progress.load(std::memory_order_relaxed);
            if (ps == support::ProbeState::kExecuting)
              os << ", task=" << pr.task.load(std::memory_order_relaxed);
            os << "\n";
          }
          return os.str();
        },
        [&eng] {
          eng.cancelled.store(true, std::memory_order_release);
          eng.aborted.store(true, std::memory_order_release);
          eng.done.store(true, std::memory_order_release);
          eng.close_queues();
        },
        crash_armed ? std::function<bool()>([&eng] {
          return eng.deaths.any_death();
        })
                    : std::function<bool()>());
  }

  const std::uint64_t run_begin = support::monotonic_ns();
  support::run_parallel(pool_, p + 1, [&](std::uint32_t w) {
    if (w < p)
      worker_body(w);
    else
      master_body();
  });
  const std::uint64_t run_end = support::monotonic_ns();
  stats.wall_ns = run_end - run_begin;
  if (watchdog) watchdog->stop();

  if (cfg_.collect_stats) {
    // Worker buckets derived from the obs phase accumulators.
    for (std::uint32_t w = 0; w < p; ++w)
      stats.workers[w].buckets = obses[w].buckets(worker_wall[w]);
    // The master executes no tasks: its unrolling time (the kMgmt span) is
    // pure runtime management, the tail spent waiting for workers is idle.
    auto& mb = stats.workers[p].buckets;
    mb.runtime_ns = master_unroll_end - master_begin;
    mb.idle_ns = run_end > master_unroll_end ? run_end - master_unroll_end : 0;
  }
  for (std::uint32_t w = 0; w <= p; ++w) obses[w].commit(cfg_.obs);

  trace_.clear();
  if (cfg_.collect_trace) {
    trace_.reserve(n);
    for (auto& tr : traces)
      for (const auto& ev : tr) trace_.record(ev);
  }
  sync_trace_.clear();
  if (cfg_.collect_sync) {
    for (auto& sy : syncs)
      for (const auto& ev : sy) sync_trace_.record(ev);
  }
  // Worker loss outranks a stall outranks a task failure.
  if (eng.deaths.any_death())
    throw stf::WorkerLost(eng.deaths.take(), watchdog && watchdog->fired()
                                                 ? watchdog->diagnostic()
                                                 : std::string());
  if (watchdog && watchdog->fired())
    throw stf::StallError(watchdog->diagnostic());
  // Only an aborted run may finish with completed < n.
  RIO_ASSERT(eng.completed.load() == n);
  if (eng.first_error) std::rethrow_exception(eng.first_error);
  return stats;
}

}  // namespace rio::coor
