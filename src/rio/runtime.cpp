#include "rio/runtime.hpp"

#include <atomic>
#include <barrier>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/clock.hpp"
#include "support/topology.hpp"
#include "support/watchdog.hpp"
#include "rio/stall_diag.hpp"
#include "stf/failure.hpp"
#include "stf/resilience.hpp"

namespace rio::rt {
namespace {

/// Everything one worker needs while unrolling the flow. Lives on the
/// worker's stack; the vectors are worker-private by construction.
struct WorkerCtx {
  stf::WorkerId self = 0;
  SharedDataState* shared = nullptr;  // array indexed by DataId
  LocalDataState* local = nullptr;    // worker-private mirror (arena-backed)
  const stf::DataRegistry* registry = nullptr;
  support::WaitPolicy policy = support::WaitPolicy::kSpinYield;

  // Doorbells (src/rio/doorbell.hpp), non-null exactly under kBlock: this
  // worker parks on bells[self] instead of sync words and rings every
  // peer's bell once per completed task.
  support::AlignedAtomic<std::uint64_t>* bells = nullptr;
  std::uint32_t num_workers = 1;

  // Instrumentation (all optional). `timed` is the union of every consumer
  // of the clock reads: the tau buckets and the flight recorder both draw
  // from the SAME obs phase spans (docs/observability.md). Which executed
  // tasks are actually timed is the lens's sampler's call.
  bool collect_stats = false;
  bool collect_sync = false;
  bool timed = false;
  obs::WorkerObs obs;
  stf::AccessGuard* guard = nullptr;
  std::atomic<std::uint64_t>* sync_stamp = nullptr;  // sync-event order
  support::WorkerStats stats;
  std::vector<stf::SyncEvent> sync;

  // Failure handling: the first thrown exception wins; once `cancelled` is
  // set, remaining task BODIES are skipped while the synchronization
  // protocol keeps running, so every worker drains deterministically.
  std::atomic<bool>* cancelled = nullptr;
  std::exception_ptr* first_error = nullptr;
  std::mutex* error_mu = nullptr;

  // Resilience (all optional; the defaults keep the historical fast path).
  stf::ResilienceOpts res;
  bool resilient = false;              ///< res.active(), hoisted
  stf::DataSnapshot snapshot;          ///< rollback arena, worker-private
  support::WorkerProbe* probe = nullptr;  ///< watchdog observability slot

  // Recovery (docs/robustness.md "worker loss").
  const stf::Frontier* resume = nullptr;    ///< replay done tasks as no-ops
  stf::CompletionBoard* checkpoint = nullptr;  ///< live done bitmap
  std::uint32_t checkpoint_pending = 0;     ///< sampled-progress local count
  stf::DeathBoard* deaths = nullptr;        ///< crash blotter (crash-armed)
  bool dead = false;  ///< this worker crashed: exit the unroll loop
};

/// Records the first error and flips the cancellation flag.
void record_failure(WorkerCtx& ctx, std::exception_ptr error) {
  std::lock_guard lock(*ctx.error_mu);
  if (!*ctx.first_error) *ctx.first_error = std::move(error);
  ctx.cancelled->store(true, std::memory_order_release);
}

/// Non-blocking pre-check of one access: would its get_* pass without
/// waiting? It only gates the wait clock (get_* still performs the acquire),
/// so relaxed loads suffice. A satisfied access stays satisfied until this
/// task releases it: every task that could move its shared words comes
/// later in flow order and waits for this one.
bool satisfied(const SharedDataState& shared, const LocalDataState& local,
               bool for_write) noexcept {
  return shared.last_executed_write.value.load(std::memory_order_relaxed) ==
             local.last_registered_write &&
         (!for_write ||
          shared.nb_reads_since_write.value.load(std::memory_order_relaxed) ==
              local.nb_reads_since_write);
}

/// The mapped-here half of Algorithm 1: acquire every access (get_*), run
/// the body, then release (terminate_*). Acquisition cannot deadlock: a
/// get_* only waits on the completion of strictly earlier tasks, never on
/// another waiting worker. Every front end funnels its owned tasks through
/// here; a pruned worker seeds ctx.local from its plan beforehand.
void execute_owned(const stf::Task& task, WorkerCtx& ctx) {
  bool stalled = false;
  std::uint64_t wait_begin = 0;
  std::uint64_t wait_cause = obs::kNoCause;
  // The wait clock is read only on a real stall: when the pre-check finds
  // an unsatisfied access. A passing pre-check means no get_* below waits.
  if (ctx.timed) {
    for (const stf::Access& a : task.accesses) {
      if (!satisfied(ctx.shared[a.data], ctx.local[a.data], is_write(a.mode))) {
        wait_begin = support::monotonic_ns();
        break;
      }
    }
  }
  std::atomic<std::uint64_t>* bell =
      ctx.bells != nullptr ? &ctx.bells[ctx.self].value : nullptr;
  for (const stf::Access& a : task.accesses) {
    // The expected producer, read before get_* observes the counters —
    // the same pair the watchdog probe and stall_diag print.
    const stf::TaskId expected = ctx.local[a.data].last_registered_write;
    if (ctx.probe != nullptr) {
      // Publish what we are about to wait for, so a watchdog firing
      // mid-wait can report expected vs observed counters.
      ctx.probe->task.store(task.id, std::memory_order_relaxed);
      ctx.probe->data.store(a.data, std::memory_order_relaxed);
      ctx.probe->expected_writer.store(expected, std::memory_order_relaxed);
      ctx.probe->expected_reads.store(ctx.local[a.data].nb_reads_since_write,
                                      std::memory_order_relaxed);
      ctx.probe->set_state(support::ProbeState::kWaiting);
    }
    const bool waited =
        is_write(a.mode)
            ? get_write(ctx.shared[a.data], ctx.local[a.data], ctx.policy,
                        ctx.res.abort, &ctx.obs.spin_iters, bell)
            : get_read(ctx.shared[a.data], ctx.local[a.data], ctx.policy,
                       ctx.res.abort, &ctx.obs.spin_iters, bell);
    // The last access that stalled is the one whose producer ended the
    // wait span — that (data, producer) pair is the span's cause.
    if (waited) wait_cause = obs::make_cause(expected, a.data);
    stalled |= waited;
  }
  if (ctx.probe != nullptr) ctx.probe->set_state(support::ProbeState::kExecuting);
  if (stalled) {
    if (ctx.timed)
      ctx.obs.span(obs::Phase::kAcquireWait, task.id, wait_begin,
                   support::monotonic_ns(), wait_cause);
    ctx.obs.count(obs::Counter::kProtocolWaits);
    if (ctx.collect_stats) ++ctx.stats.waits;
  }

  // Acquire stamps are drawn AFTER every get_* completed, so each observed
  // terminate_* (stamped before its publish) sorts strictly earlier — the
  // invariant the happens-before checker relies on.
  if (ctx.collect_sync) {
    for (const stf::Access& a : task.accesses)
      ctx.sync.push_back(
          {task.id, ctx.self, a.data, a.mode, stf::SyncKind::kAcquire,
           ctx.sync_stamp->fetch_add(1, std::memory_order_acq_rel)});
  }

  if (ctx.guard)
    for (const stf::Access& a : task.accesses) ctx.guard->acquire(a);

  // Resume replay: a task already inside the completion frontier re-runs
  // ONLY its protocol ops (the acquires above were pre-satisfied no-ops on
  // a fresh protocol state in flow order) — its data effects are already
  // in the registry, so the body, fault injection and checkpoint mark are
  // all skipped.
  const bool replay = ctx.resume != nullptr && ctx.resume->done(task.id);
  bool body_ok = !replay;
  bool crashed = false;
  // Decided before any clock read: untimed tasks read none.
  const bool timed = ctx.timed && ctx.obs.sampler.next();
  std::uint64_t t0 = 0;
  if (timed) t0 = support::monotonic_ns();
  if (replay) {
    ctx.obs.count(obs::Counter::kTasksReplayed);
  } else if (ctx.resilient) {
    if (!ctx.cancelled->load(std::memory_order_acquire)) {
      stf::BodyResult r = stf::execute_body(task, *ctx.registry, ctx.self,
                                            ctx.res, ctx.snapshot);
      if (r.crashed) {
        crashed = true;
      } else if (!r.ok) {
        body_ok = false;
        record_failure(ctx, std::move(r.error));
      }
    } else {
      body_ok = false;  // skipped under cancellation: not done, not marked
    }
  } else if (task.fn && !ctx.cancelled->load(std::memory_order_acquire)) {
    stf::TaskContext tc(task, *ctx.registry, ctx.self);
    try {
      task.fn(tc);
    } catch (...) {
      body_ok = false;
      record_failure(ctx, std::current_exception());
    }
  } else if (ctx.cancelled->load(std::memory_order_acquire)) {
    body_ok = false;
  }
  std::uint64_t t1 = 0;
  if (timed) {
    t1 = support::monotonic_ns();
    ctx.obs.body(task.id, t0, t1);
  }

  if (ctx.guard)
    for (const stf::Access& a : task.accesses) ctx.guard->release(a);

  if (crashed) {
    // Permanent worker death: record the dirty write spans (the body DID
    // run) and leave without publishing the terminate — dependents block
    // until the watchdog tripwire aborts the run, and the supervisor
    // restores `dirty` before replaying this task on a survivor.
    stf::DeathRecord d;
    d.worker = ctx.self;
    d.task = task.id;
    d.dirty = std::move(ctx.snapshot);
    ctx.deaths->record(std::move(d));
    ctx.dead = true;
    if (ctx.probe != nullptr) ctx.probe->set_state(support::ProbeState::kDone);
    return;
  }

  // Checkpoint mark: after the body succeeded, before the terminate
  // publish — a set bit guarantees the task's effects are present.
  if (ctx.checkpoint != nullptr && body_ok) {
    ctx.checkpoint->mark(task.id);
    ctx.checkpoint->note_completion(ctx.checkpoint_pending);
  }

  // Release stamps are drawn BEFORE terminate_* publishes anything.
  if (ctx.collect_sync) {
    for (const stf::Access& a : task.accesses)
      ctx.sync.push_back(
          {task.id, ctx.self, a.data, a.mode, stf::SyncKind::kRelease,
           ctx.sync_stamp->fetch_add(1, std::memory_order_acq_rel)});
  }

  for (const stf::Access& a : task.accesses) {
    if (is_write(a.mode))
      terminate_write(ctx.shared[a.data], ctx.local[a.data], task.id);
    else
      terminate_read(ctx.shared[a.data], ctx.local[a.data]);
  }
  if (ctx.bells != nullptr && !task.accesses.empty()) {
    // One bump per peer per task — the whole release boundary batched into
    // (p - 1) RMWs, with the futex syscall only when a peer is parked. A
    // task without accesses published no word a peer could wait on, so it
    // rings no bell (and counts no wakeup below).
    std::uint64_t issued = 0;
    for (std::uint32_t w = 0; w < ctx.num_workers; ++w) {
      if (w == ctx.self) continue;
      if (ring_doorbell(ctx.bells[w].value, ctx.policy)) ++issued;
    }
    ctx.obs.count(obs::Counter::kWakeups, ctx.num_workers - 1);
    ctx.obs.count(obs::Counter::kWakeupsIssued, issued);
    ctx.obs.count(obs::Counter::kWakeupsElided,
                  (ctx.num_workers - 1) - issued);
  } else {
    ctx.obs.count(obs::Counter::kWakeups, task.accesses.size());
  }
  if (timed) ctx.obs.release(task.id, t1, support::monotonic_ns());
  ctx.obs.count(obs::Counter::kTasksExecuted);
  if (ctx.probe != nullptr)
    ctx.probe->progress.fetch_add(1, std::memory_order_relaxed);
  if (ctx.collect_stats) ++ctx.stats.tasks_executed;
}

/// Handles one task in flow order: execute it if mapped here, otherwise
/// register its accesses locally. This is the body of Algorithm 1
/// generalized to tasks with several accesses.
void process_task(const stf::Task& task, const Mapping& mapping,
                  WorkerCtx& ctx) {
  if (mapping(task.id) != ctx.self) {
    // Not ours: one or two private-memory writes per access, no atomics.
    for (const stf::Access& a : task.accesses) {
      if (is_write(a.mode))
        declare_write(ctx.local[a.data], task.id);
      else
        declare_read(ctx.local[a.data]);
    }
    if (ctx.collect_stats) ++ctx.stats.tasks_skipped;
    ctx.obs.count(obs::Counter::kTasksSkipped);
    return;
  }
  execute_owned(task, ctx);
}

/// Streaming sink: submits flow straight into process_task, assigning ids
/// by submission order (identical on every worker for a deterministic
/// program).
class ReplaySink final : public stf::SubmitSink {
 public:
  ReplaySink(const Mapping& mapping, WorkerCtx& ctx)
      : mapping_(mapping), ctx_(ctx) {}

  void submit(stf::TaskFn fn, stf::AccessList accesses, std::uint64_t cost,
              std::string name) override {
    if (ctx_.dead) {
      ++next_id_;  // a dead worker ignores the rest of the program
      return;
    }
    stf::Task t;
    t.id = next_id_++;
    t.fn = std::move(fn);
    t.accesses = std::move(accesses);
    t.cost = cost;
    t.name = std::move(name);
    process_task(t, mapping_, ctx_);
  }

 private:
  const Mapping& mapping_;
  WorkerCtx& ctx_;
  stf::TaskId next_id_ = 0;
};

/// The one fork-join core of every run flavour: allocates the shared
/// protocol words and per-worker contexts, aligns the workers on a start
/// barrier, runs `unroll(ctx)` on each, then folds stats and sync events back
/// together. `unroll` is the whole per-worker walk (compiled-image unroll,
/// pruned plan slice, or streaming program); `engine` labels the stall
/// diagnostic ("rio" or "rio-pruned").
template <typename UnrollFn>
support::RunStats launch(const engine::Launch& cfg, const char* engine,
                         support::ThreadPool* pool,
                         const stf::DataRegistry& registry,
                         std::size_t num_data, stf::SyncTrace& sync_out,
                         RunArenas& arenas, UnrollFn&& unroll) {
  const std::uint32_t p = cfg.workers;
  const bool crash_armed =
      cfg.fault != nullptr && cfg.fault->plan().crash_armed();
  const std::uint64_t watchdog_ns = engine::armed_watchdog_ns(cfg);
  const bool watched = watchdog_ns > 0;
  // Every kBlock run parks on doorbells, watched or not.
  const bool block = cfg.wait_policy == support::WaitPolicy::kBlock;

  // Recycled sync-word arena: reset in place when it already fits.
  // SharedDataState holds atomics (not copyable), so growth recreates.
  std::vector<SharedDataState>& shared = arenas.shared;
  if (shared.size() < num_data) {
    shared = std::vector<SharedDataState>(num_data);
  } else {
    for (std::size_t d = 0; d < num_data; ++d) {
      shared[d].last_executed_write.value.store(kNoWrite,
                                                std::memory_order_relaxed);
      shared[d].nb_reads_since_write.value.store(0, std::memory_order_relaxed);
    }
  }
  if (block) {
    if (arenas.bells.size() < p) {
      arenas.bells =
          std::vector<support::AlignedAtomic<std::uint64_t>>(p);
    } else {
      for (std::uint32_t w = 0; w < p; ++w)
        arenas.bells[w].value.store(0, std::memory_order_relaxed);
    }
  }
  stf::AccessGuard guard;
  if (cfg.enable_guard) guard.enable(num_data);
  std::atomic<std::uint64_t> sync_stamp{0};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> abort{false};  // set only by a firing watchdog
  std::exception_ptr first_error;
  std::mutex error_mu;
  stf::DeathBoard deaths;  // crash blotter; observed by the tripwire

  std::vector<support::WorkerProbe> probes(watched ? p : 0);

  std::vector<WorkerCtx> ctxs(p);
  arenas.locals.resize(p);
  for (std::uint32_t w = 0; w < p; ++w) {
    WorkerCtx& c = ctxs[w];
    c.self = w;
    c.shared = shared.data();
    // Recycled worker-private replica array (assign keeps capacity).
    arenas.locals[w].assign(num_data, LocalDataState{});
    c.local = arenas.locals[w].data();
    c.registry = &registry;
    c.policy = cfg.wait_policy;
    c.bells = block ? arenas.bells.data() : nullptr;
    c.num_workers = p;
    c.collect_stats = cfg.collect_stats;
    c.collect_sync = cfg.collect_sync;
    c.guard = cfg.enable_guard ? &guard : nullptr;
    c.sync_stamp = &sync_stamp;
    c.cancelled = &cancelled;
    c.first_error = &first_error;
    c.error_mu = &error_mu;
    c.res.retry = cfg.retry;
    c.res.fault = cfg.fault;
    c.res.abort = watched ? &abort : nullptr;
    c.resilient = c.res.active();
    c.probe = watched ? &probes[w] : nullptr;
    c.resume = cfg.resume;
    c.checkpoint = cfg.checkpoint;
    c.deaths = crash_armed ? &deaths : nullptr;
  }
  if (cfg.obs != nullptr) cfg.obs->ensure_workers(p);
  for (std::uint32_t w = 0; w < p; ++w) {
    WorkerCtx& c = ctxs[w];
    c.obs.bind(cfg.obs, w);
    c.res.obs = &c.obs;
    c.timed = cfg.collect_stats || c.obs.recording();
  }

  // All workers align on a start barrier so their wall times compare; the
  // makespan clock wraps the whole fork-join (spawn/wake cost included).
  std::barrier start(static_cast<std::ptrdiff_t>(p));
  std::vector<std::uint64_t> worker_wall(p, 0);

  const std::uint32_t cpus = support::detect_topology().logical_cpus;
  const auto body = [&](std::uint32_t w) {
    if (cfg.pin_workers) support::pin_current_thread(w % cpus);
    WorkerCtx& c = ctxs[w];
    start.arrive_and_wait();
    const std::uint64_t begin = support::monotonic_ns();
    unroll(c);
    if (c.probe != nullptr) c.probe->set_state(support::ProbeState::kDone);
    worker_wall[w] = support::monotonic_ns() - begin;
  };

  // Progress watchdog: a monitor thread watches the sum of per-worker
  // executed-task counters; if it freezes for the whole window, capture the
  // diagnostic (while workers are still stuck), then cancel + abort and
  // ring every bell so every wait, parked ones included, drains and the run
  // fails with StallError instead of hanging.
  std::optional<support::Watchdog> watchdog;
  if (watched) {
    watchdog.emplace(
        watchdog_ns,
        [&probes, p, hub = cfg.obs]() noexcept {
          if (hub != nullptr)
            hub->global_counters().add(obs::Counter::kWatchdogProbes);
          std::uint64_t sum = 0;
          for (std::uint32_t w = 0; w < p; ++w)
            sum += probes[w].progress.load(std::memory_order_relaxed);
          return sum;
        },
        [&] {
          if (cfg.obs != nullptr) {
            // The watchdog thread owns no ring; stall markers go through
            // the hub's out-of-band instant list.
            const std::uint64_t now = support::monotonic_ns();
            for (std::uint32_t w = 0; w < p; ++w)
              cfg.obs->instant(
                  {now, now, probes[w].task.load(std::memory_order_relaxed), w,
                   obs::Phase::kStallSnapshot});
          }
          return stall_diagnostic(engine, watchdog_ns, probes.data(), p,
                                  shared.data(), num_data);
        },
        [&] {
          cancelled.store(true, std::memory_order_release);
          abort.store(true, std::memory_order_release);
          // After the store: a parker registered before this ring is
          // woken, one registering after it sees the abort.
          if (block)
            for (std::uint32_t w = 0; w < p; ++w)
              ring_doorbell(arenas.bells[w].value, cfg.wait_policy);
        },
        // Tripwire: a recorded worker death aborts the run at the next
        // poll even while survivors still make progress elsewhere.
        crash_armed ? std::function<bool()>([&deaths] {
          return deaths.any_death();
        })
                    : std::function<bool()>());
  }

  const std::uint64_t t0 = support::monotonic_ns();
  support::run_parallel(pool, p, body);
  const std::uint64_t wall = support::monotonic_ns() - t0;
  if (watchdog) watchdog->stop();

  support::RunStats stats;
  stats.wall_ns = wall;
  stats.workers.resize(p);
  sync_out.clear();
  for (std::uint32_t w = 0; w < p; ++w) {
    WorkerCtx& c = ctxs[w];
    c.obs.commit(cfg.obs);
    if (cfg.collect_stats) {
      // The tau buckets are DERIVED from the obs phase accumulators: task
      // time is the body phase, idle the acquire-wait stalls, and whatever
      // was neither is runtime management — unrolling, declare ops,
      // protocol publication.
      c.stats.buckets = c.obs.buckets(worker_wall[w]);
      c.stats.tasks_timed = c.obs.sampler.timed();
    }
    stats.workers[w] = c.stats;
    for (const stf::SyncEvent& ev : c.sync) sync_out.record(ev);
  }
  // Escalation order: worker loss outranks a stall (the stall IS the
  // death's symptom — dependents of the unpublished task blocked), and a
  // stall outranks any task failure.
  if (deaths.any_death())
    throw stf::WorkerLost(deaths.take(), watchdog && watchdog->fired()
                                             ? watchdog->diagnostic()
                                             : std::string());
  if (watchdog && watchdog->fired()) throw stf::StallError(watchdog->diagnostic());
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace

Runtime::Runtime(engine::Launch launch) { configure(launch); }

void Runtime::configure(const engine::Launch& launch) {
  RIO_ASSERT_MSG(launch.workers > 0, "need at least one worker");
  cfg_ = launch;
}

support::RunStats Runtime::run(const stf::ImageRange& range,
                               const Mapping& mapping) {
  RIO_ASSERT(mapping.valid());
  // Hoist everything the unroll loop needs out of the per-task path: the
  // span and access arrays are the ONLY memory a worker touches for a task
  // it skips (plus its private local[] words) — the dense metadata that
  // makes p×n unrolling cheap.
  const std::size_t n = range.size();
  const stf::FlowImage::Span* spans = range.spans();
  const stf::Access* acc = range.accesses_base();
  const stf::TaskId first = range.first_id();
  return launch(
      cfg_, "rio", pool_, range.registry(), range.num_data(), sync_trace_,
      arenas_, [&, n, spans, acc, first](WorkerCtx& c) {
        std::uint64_t skipped = 0;  // batched: keeps the declare loop tight
        for (std::size_t i = 0; i < n; ++i) {
          const stf::TaskId id = first + i;
          if (mapping(id) != c.self) {
            const stf::FlowImage::Span s = spans[i];
            for (std::uint32_t k = s.begin; k != s.end; ++k) {
              const stf::Access a = acc[k];
              if (is_write(a.mode))
                declare_write(c.local[a.data], id);
              else
                declare_read(c.local[a.data]);
            }
            ++skipped;
            continue;
          }
          execute_owned(range.task(i), c);
          if (c.dead) break;
        }
        if (c.collect_stats) c.stats.tasks_skipped += skipped;
        if (skipped > 0) c.obs.count(obs::Counter::kTasksSkipped, skipped);
      });
}

support::RunStats Runtime::run(const stf::FlowImage& image,
                               const PrunedPlan& plan) {
  RIO_ASSERT_MSG(plan.num_workers() == cfg_.workers,
                 "plan built for a different worker count");
  RIO_ASSERT_MSG(plan.total_tasks() == image.size(),
                 "plan built for a different image");
  const stf::FlowImage::Span* spans = image.spans();
  const stf::Access* acc = image.accesses();
  return launch(cfg_, "rio-pruned", pool_, image.registry(), image.num_data(),
                sync_trace_, arenas_, [&, spans, acc](WorkerCtx& c) {
                  for (const std::uint32_t i : plan.tasks_for(c.self)) {
                    // Seed the replica with exactly what a full unroll
                    // would have declared up to this task.
                    const stf::FlowImage::Span s = spans[i];
                    for (std::uint32_t k = s.begin; k != s.end; ++k) {
                      const PrunedSeed& seed = plan.seed(k);
                      c.local[acc[k].data] = {seed.expected_writer,
                                              seed.expected_reads};
                    }
                    execute_owned(image.task(i), c);
                    if (c.dead) break;
                  }
                });
}

support::RunStats Runtime::run_pruned(const stf::FlowImage& image,
                                      const Mapping& mapping) {
  const auto plan = plans_.get(image, mapping, cfg_.workers);
  return run(image, *plan);
}

support::RunStats Runtime::run_program(const stf::DataRegistry& registry,
                                       const stf::ProgramFn& program,
                                       const Mapping& mapping) {
  RIO_ASSERT(mapping.valid());
  return launch(cfg_, "rio", pool_, registry, registry.size(), sync_trace_,
                arenas_, [&](WorkerCtx& c) {
                  ReplaySink sink(mapping, c);
                  program(sink);  // the worker IS the unroller
                });
}

}  // namespace rio::rt
