// rio_e2e — one workload of the registry-path end-to-end benchmark.
//
// Every engine is driven the way the CLI, the tests and `rioflow optimize`
// drive it: engine::Registry::instance().find(name)->run(image, launch).
// The harness only times calls into public functions from outside
// (workloads::make_*, stf::FlowImage::compile, rt::PrunedPlan, Backend::run,
// obs::Hub snapshots); it adds no tracing inside the library.
//
//   rio_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--quick] [--json PATH]
//
// Standard error gets one table with every metric and its unit. The last
// line of standard output is the summary object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) that BENCHMARK.json lists. --json writes the full rio.e2e.v1
// workload record. Exit codes: 0 clean, 2 bad arguments, 3 a run failed
// (threw, bytes differ from the oracle, a simulator makespan moved) or a
// traced identity did not hold. See README.md for the metric glossary.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "obs/obs.hpp"
#include "rio/pruning.hpp"
#include "stf/data_registry.hpp"
#include "stf/flow_image.hpp"
#include "support/format.hpp"
#include "support/json.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/tiled_matrix.hpp"

namespace {

using namespace rio;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kWorkers = 3;
// Round counts below are sized so that one workload runs for about this
// long at the commit that introduced the benchmark; --seconds scales them.
// The count is a function of the arguments only, never of elapsed time, so
// two commits run with the same arguments do identical work.
constexpr double kNominalSeconds = 20.0;
constexpr std::uint64_t kSetups = 100;    // fresh make_* + compile samples
constexpr std::uint64_t kFirstRuns = 40;  // fresh images per first-run metric
constexpr std::uint64_t kTraceEvery = 4;  // traced pass: 1 round in 4
constexpr std::uint64_t kQuickRounds = 24;

struct WorkloadDef {
  std::string_view name;
  std::uint64_t rounds;  // at kNominalSeconds
};

constexpr std::array<WorkloadDef, 4> kWorkloads{{
    {"fine-independent", 500},
    {"random-deps", 600},
    {"chain-handoff", 450},
    {"cholesky-numeric", 200},
}};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- inputs -----------------------------------------------------------------

/// Makes fresh flows of one workload from the seed. The cholesky matrix is
/// the flow's data, so it lives here and outlives every flow made from it.
class Generator {
 public:
  Generator(std::string_view name, std::uint64_t seed, bool quick)
      : name_(name), seed_(seed), quick_(quick) {
    if (name_ == "cholesky-numeric") {
      matrix_ = std::make_unique<workloads::TiledMatrix>(quick ? 4 : 8,
                                                         quick ? 48 : 96);
      matrix_->fill_random_diagonally_dominant(seed);
      matrix_->symmetrize();
    }
  }

  [[nodiscard]] workloads::Workload make() const {
    using workloads::BodyKind;
    if (name_ == "fine-independent")
      return workloads::make_independent({.num_tasks = quick_ ? 2048u : 16384u,
                                          .task_cost = 0,
                                          .body = BodyKind::kCounter,
                                          .num_workers = kWorkers});
    if (name_ == "random-deps")
      return workloads::make_random_deps({.num_tasks = quick_ ? 1024u : 4096u,
                                          .num_data = 128,
                                          .reads_per_task = 2,
                                          .writes_per_task = 1,
                                          .task_cost = 2000,
                                          .body = BodyKind::kFold,
                                          .seed = seed_,
                                          .num_workers = kWorkers});
    if (name_ == "chain-handoff")
      return workloads::make_chain({.num_tasks = quick_ ? 1024u : 4096u,
                                    .task_cost = 200,
                                    .body = BodyKind::kFold,
                                    .num_workers = kWorkers});
    return workloads::make_cholesky_numeric(*matrix_, kWorkers);
  }

 private:
  std::string name_;
  std::uint64_t seed_;
  bool quick_;
  std::unique_ptr<workloads::TiledMatrix> matrix_;
};

/// Every data object's bytes, concatenated in id order.
std::vector<std::byte> capture(const stf::DataRegistry& reg) {
  std::vector<std::byte> out;
  for (stf::DataId id = 0; id < reg.size(); ++id) {
    const auto* p = static_cast<const std::byte*>(reg.raw(id));
    out.insert(out.end(), p, p + reg.bytes(id));
  }
  return out;
}

bool matches(const stf::DataRegistry& reg, const std::vector<std::byte>& ref) {
  std::size_t off = 0;
  for (stf::DataId id = 0; id < reg.size(); ++id) {
    const std::size_t n = reg.bytes(id);
    if (off + n > ref.size() ||
        std::memcmp(reg.raw(id), ref.data() + off, n) != 0)
      return false;
    off += n;
  }
  return off == ref.size();
}

double spawn_join_us(std::uint32_t threads) {
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) pool.emplace_back([] {});
  for (std::thread& t : pool) t.join();
  return ms_since(t0) * 1e3;
}

// --- metrics ----------------------------------------------------------------

// Run times report the lower quartile of their samples, not the median. On
// the reference machine, a shared 4-vCPU KVM guest, the vCPUs fall into slow
// episodes lasting seconds (a pinned counter loop then runs up to 1.8x
// slower, 10-25% of the time), and a run's median moves with its share of
// slow time; README.md has the measured spreads.
constexpr double kRunQuantile = 0.25;
// Regression bound of setup_s and of every run time: the largest
// BENCHMARK.json accepts, because even the lower quartile still moves by
// 10-22% between identical processes on some workloads of the reference
// machine (README.md).
constexpr double kRunBound = 0.25;

struct Metric {
  std::string name;
  std::string unit;
  std::string layer;  // "e2e" for the end-to-end metrics
  std::string better = "lower";
  double value = 0;
  std::string stat = "exact";   // what value is: "p25", "median" or "exact"
  std::vector<double> samples;  // empty for exact values
  double bound = -1;            // e2e only; 0 means "any increase"
};

// Reported, but not listed in BENCHMARK.json. fail_frac reaches its readers
// as the summary's attempted/failed pair. The phase times and counts below
// are zero by construction under the default launch: rio and rio-pruned
// have no steal or master phase and no ready queue, and ring no doorbell
// under spin-yield waits; coor and hybrid run without work stealing; coor
// counts neither protocol waits nor spin iterations; pruned workers and
// coor skip nothing. The acquire waits of rio and rio-pruned are zero on
// fine-independent, which has no accesses. A time that reads the same on
// every run cannot be gated.
const std::set<std::string, std::less<>> kUnlisted = {
    "fail_frac",
    "rio.acquire_wait_ms",
    "rio.steal_ms",
    "rio.mgmt_ms",
    "rio.wakeups_issued_pt",
    "rio.wakeups_elided_pt",
    "rio.queue_pushes_pt",
    "rio-pruned.acquire_wait_ms",
    "rio-pruned.steal_ms",
    "rio-pruned.mgmt_ms",
    "rio-pruned.wakeups_issued_pt",
    "rio-pruned.wakeups_elided_pt",
    "rio-pruned.tasks_skipped_pt",
    "rio-pruned.queue_pushes_pt",
    "coor.steal_ms",
    "coor.protocol_waits_pt",
    "coor.spin_iters_pt",
    "coor.tasks_skipped_pt",
    "hybrid.steal_ms",
};

// --- the benchmark ----------------------------------------------------------

/// One timed configuration of a round: a registered engine, optionally with
/// a counters-only hub attached.
struct Config {
  std::string metric;
  const engine::Backend* backend;
  bool obs;
};

/// What a traced run leaves behind: wall time plus the hub's phase totals
/// and counter totals.
struct TracedRun {
  double ms = 0;
  std::array<std::uint64_t, obs::kNumSpanPhases> phase_ns{};
  std::array<std::uint64_t, obs::kNumCounters> counters{};
  std::size_t threads = 0;
};

class Bench {
 public:
  Bench(const WorkloadDef& def, std::uint64_t seed, std::uint64_t rounds,
        bool quick, bool trace)
      : rounds_(rounds),
        trace_(trace),
        gen_(def.name, seed, quick),
        wl_(gen_.make()),
        image_(stf::FlowImage::compile(wl_.flow)) {
    launch_.workers = kWorkers;
    launch_.pin_workers = true;
    launch_.mapping = wl_.mapping(kWorkers);
    obs_launch_ = launch_;
    obs_launch_.obs = &obs_hub_;

    const stf::DataRegistry& reg = image_.registry();
    for (stf::DataId id = 0; id < reg.size(); ++id) pristine_.add(reg, id);
    (void)backend("seq").run(image_, launch_);
    oracle_ = capture(reg);

    for (const char* e :
         {"seq", "rio", "rio-pruned", "coor", "hybrid", "sim-rio"})
      configs_.push_back({std::string(e) + ".run_ms", &backend(e), false});
    configs_.push_back({"rio.obs_run_ms", &backend("rio"), true});
  }

  void run() {
    const auto t0 = Clock::now();
    const std::size_t c = configs_.size();
    std::uint64_t setups = 0, firsts = 0;
    for (std::uint64_t r = 0; r < rounds_; ++r) {
      // Probe i of k runs in round floor(i * rounds / k), so the probes
      // spread over the whole run whatever the round count.
      while (setups < kSetups && setups * rounds_ / kSetups <= r) {
        setup_probe();
        ++setups;
      }
      for (std::size_t i = 0; i < c; ++i) run_config(configs_[(r + i) % c]);
      while (firsts < kFirstRuns && firsts * rounds_ / kFirstRuns <= r) {
        first_run_probe(firsts % 2 == 0);
        ++firsts;
      }
      if (trace_ && r % kTraceEvery == 0) traced_round(r / kTraceEvery);
    }
    elapsed_s_ = ms_since(t0) / 1e3;
  }

  [[nodiscard]] std::vector<Metric> metrics() const;
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const {
    return run_failures_ + identity_failures_;
  }
  [[nodiscard]] double elapsed_s() const { return elapsed_s_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failure_log_;
  }

 private:
  static const engine::Backend& backend(std::string_view name) {
    const engine::Backend* b = engine::Registry::instance().find(name);
    if (b == nullptr) {
      std::cerr << "rio_e2e: engine '" << name << "' is not registered\n";
      std::exit(2);
    }
    return *b;
  }

  void note_failure(std::string what) {
    if (failure_log_.size() < 8) failure_log_.push_back(std::move(what));
  }

  /// One Backend::run, timed. Restoring the inputs before it and checking
  /// the result after it both happen outside the timer. False when the run
  /// threw, its bytes differ from the oracle (executes_bodies engines) or
  /// its makespan differs from that simulator's first run.
  bool timed_run(const engine::Backend& b, const stf::FlowImage& image,
                 const engine::Launch& launch, double& ms,
                 engine::Outcome& out) {
    const bool bodies = b.caps().executes_bodies;
    if (bodies) pristine_.restore(image.registry());
    ++attempted_;
    try {
      const auto t0 = Clock::now();
      engine::Outcome o = b.run(image, launch);
      ms = ms_since(t0);
      out = std::move(o);
    } catch (const std::exception& e) {
      ++run_failures_;
      note_failure(std::string(b.name()) + " threw: " + e.what());
      return false;
    }
    if (bodies && !matches(image.registry(), oracle_)) {
      ++run_failures_;
      note_failure(std::string(b.name()) + ": bytes differ from the oracle");
      return false;
    }
    if (b.caps().virtual_time) {
      const auto [it, first] =
          makespans_.try_emplace(std::string(b.name()), out.makespan);
      if (!first && it->second != out.makespan) {
        ++run_failures_;
        note_failure(std::string(b.name()) + ": makespan " +
                     std::to_string(out.makespan) + " != first run's " +
                     std::to_string(it->second));
        return false;
      }
    }
    return true;
  }

  void run_config(const Config& cfg) {
    if (cfg.obs) obs_hub_.reset();
    double ms = 0;
    engine::Outcome out;
    if (!timed_run(*cfg.backend, image_, cfg.obs ? obs_launch_ : launch_, ms,
                   out))
      return;
    samples_[cfg.metric].push_back(ms);
    if (cfg.backend->name() == "rio-pruned") {
      plan_compiles_ += out.plan_compiles;
      ++pruned_runs_;
    }
  }

  void setup_probe() {
    const auto t0 = Clock::now();
    const workloads::Workload wl = gen_.make();
    const double gen_ms = ms_since(t0);
    const auto t1 = Clock::now();
    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    const double compile_ms = ms_since(t1);
    samples_["workloads.gen_ms"].push_back(gen_ms);
    samples_["stf.compile_ms"].push_back(compile_ms);
    samples_["setup_s"].push_back((gen_ms + compile_ms) / 1e3);
  }

  /// First run of a freshly compiled image (new serial), on rio and
  /// rio-pruned in alternating order.
  void first_run_probe(bool rio_first) {
    for (const char* e : rio_first ? std::array{"rio", "rio-pruned"}
                                   : std::array{"rio-pruned", "rio"}) {
      const stf::FlowImage image = stf::FlowImage::compile(wl_.flow);
      double ms = 0;
      engine::Outcome out;
      if (timed_run(backend(e), image, launch_, ms, out))
        samples_[std::string(e) + ".first_run_ms"].push_back(ms);
    }
  }

  void traced_round(std::uint64_t k) {
    static constexpr std::array<const char*, 4> kTraced = {
        "rio", "rio-pruned", "coor", "hybrid"};
    for (std::size_t i = 0; i < kTraced.size(); ++i)
      traced_run(kTraced[(k + i) % kTraced.size()]);

    samples_["support.spawn_join_us"].push_back(spawn_join_us(kWorkers));

    {
      const auto t0 = Clock::now();
      const rt::PrunedPlan plan(image_, launch_.mapping, kWorkers);
      samples_["rio.plan_compile_ms"].push_back(ms_since(t0));
    }

    double ms = 0;
    engine::Outcome out;
    timed_run(backend("sim-coor"), image_, launch_, ms, out);
  }

  void traced_run(const std::string& e) {
    obs::Hub& hub = traced_hubs_[e];
    hub.reset();
    engine::Launch launch = launch_;
    launch.obs = &hub;
    TracedRun t;
    engine::Outcome out;
    if (!timed_run(backend(e), image_, launch, t.ms, out)) return;
    for (std::size_t p = 0; p < obs::kNumSpanPhases; ++p)
      t.phase_ns[p] = hub.phase_total(static_cast<obs::Phase>(p));
    t.counters = hub.counter_snapshot().totals;
    t.threads = hub.num_workers();

    // Sanity identities of the traced pass (README.md).
    const std::uint64_t n = image_.size();
    const auto count = [&](obs::Counter c) {
      return t.counters[static_cast<std::size_t>(c)];
    };
    auto expect = [&](bool ok, const std::string& what) {
      if (ok) return true;
      ++identity_failures_;
      note_failure(e + ": " + what);
      return false;
    };
    bool ok = true;
    if (e != "hybrid")
      ok &= expect(count(obs::Counter::kTasksExecuted) == n,
                   "tasks_executed " +
                       std::to_string(count(obs::Counter::kTasksExecuted)) +
                       " != n " + std::to_string(n));
    if (e == "rio")
      ok &= expect(count(obs::Counter::kTasksSkipped) == (kWorkers - 1) * n,
                   "tasks_skipped != (W-1) * n");
    if (e == "rio-pruned")
      ok &= expect(count(obs::Counter::kTasksSkipped) == 0,
                   "tasks_skipped != 0");
    if (ok) traced_[e].push_back(t);
  }

  std::uint64_t rounds_;
  bool trace_;
  Generator gen_;
  workloads::Workload wl_;
  stf::FlowImage image_;
  engine::Launch launch_;
  engine::Launch obs_launch_;
  obs::Hub obs_hub_;
  stf::DataSnapshot pristine_;  // inputs, restored before every bodies run
  std::vector<std::byte> oracle_;
  std::vector<Config> configs_;

  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<TracedRun>> traced_;
  std::map<std::string, obs::Hub> traced_hubs_;
  std::map<std::string, std::uint64_t> makespans_;
  std::uint64_t plan_compiles_ = 0;
  std::uint64_t pruned_runs_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t run_failures_ = 0;
  std::uint64_t identity_failures_ = 0;
  std::vector<std::string> failure_log_;
  double elapsed_s_ = 0;
};

std::vector<Metric> Bench::metrics() const {
  std::vector<Metric> out;
  const auto samples = [&](const std::string& name) {
    const auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  };
  // Appends a metric valued at quantile q of its samples and returns it for
  // the caller to adjust.
  const auto add = [&](std::string name, std::string unit, std::string layer,
                       std::vector<double> s, double q = 0.5) -> Metric& {
    const double v = quantile(s, q);
    std::string stat =
        q == 0.5 ? "median" : "p" + std::to_string(std::lround(q * 100));
    out.push_back({std::move(name), std::move(unit), std::move(layer), "lower",
                   v, std::move(stat), std::move(s), -1});
    return out.back();
  };
  const auto exact = [&](std::string name, std::string unit, std::string layer,
                         double value) -> Metric& {
    out.push_back({std::move(name), std::move(unit), std::move(layer), "lower",
                   value, "exact", {}, -1});
    return out.back();
  };
  const auto run_ms = [&](const std::string& engine) {
    return quantile(samples(engine + ".run_ms"), kRunQuantile);
  };

  // End to end.
  add("setup_s", "s", "e2e", samples("setup_s")).bound = kRunBound;
  static constexpr std::array<const char*, 6> kRun = {
      "seq", "rio", "rio-pruned", "coor", "hybrid", "sim-rio"};
  for (const char* e : kRun)
    add(std::string(e) + ".run_ms", "ms", "e2e",
        samples(std::string(e) + ".run_ms"), kRunQuantile)
        .bound = kRunBound;
  for (const char* m :
       {"rio.first_run_ms", "rio-pruned.first_run_ms", "rio.obs_run_ms"})
    add(m, "ms", "e2e", samples(m), kRunQuantile).bound = kRunBound;
  exact("fail_frac", "ratio", "e2e",
        attempted_ == 0 ? 1.0
                        : static_cast<double>(run_failures_) /
                              static_cast<double>(attempted_))
      .bound = 0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  exact("peak_rss_mb", "MB", "e2e", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .bound = 0.10;

  // Per layer, from the untraced rounds.
  add("workloads.gen_ms", "ms", "workloads", samples("workloads.gen_ms"));
  add("stf.compile_ms", "ms", "stf", samples("stf.compile_ms"));
  exact("stf.tasks", "count", "stf", static_cast<double>(image_.size()));
  exact("stf.accesses", "count", "stf",
        static_cast<double>(image_.num_accesses_total()));
  exact("rio-pruned.plan_compiles_per_run", "count", "rio",
        pruned_runs_ == 0 ? 0.0
                          : static_cast<double>(plan_compiles_) /
                                static_cast<double>(pruned_runs_));
  const auto makespan = [&](const char* e) {
    const auto it = makespans_.find(e);
    return it == makespans_.end() ? 0.0 : static_cast<double>(it->second);
  };
  exact("sim-rio.makespan_ticks", "ticks", "sim", makespan("sim-rio"));
  for (const char* e : kRun)
    add(std::string(e) + ".run_ms_p90", "ms", "engine",
        samples(std::string(e) + ".run_ms"), 0.9);
  static constexpr std::array<const char*, 4> kReal = {"rio", "rio-pruned",
                                                       "coor", "hybrid"};
  for (const char* e : kReal) {
    const double e_ms = run_ms(e);
    exact(std::string(e) + ".efficiency", "ratio", "engine",
          e_ms > 0 ? run_ms("seq") / (kWorkers * e_ms) : 0.0)
        .better = "higher";
  }
  if (!trace_) return out;

  // Per layer, from the traced pass.
  add("support.spawn_join_us", "us", "support",
      samples("support.spawn_join_us"));
  add("rio.plan_compile_ms", "ms", "rio", samples("rio.plan_compile_ms"));
  exact("sim-coor.makespan_ticks", "ticks", "sim", makespan("sim-coor"));

  const double n = static_cast<double>(image_.size());
  for (const char* e : kReal) {
    const auto it = traced_.find(e);
    const std::vector<TracedRun> none;
    const std::vector<TracedRun>& runs =
        it == traced_.end() ? none : it->second;
    const auto per_run = [&](auto f) {
      std::vector<double> v;
      for (const TracedRun& t : runs) v.push_back(f(t));
      return v;
    };
    const auto phase_ms = [](const TracedRun& t, obs::Phase p) {
      return static_cast<double>(t.phase_ns[static_cast<std::size_t>(p)]) / 1e6;
    };
    const auto useful_ms = [&](const TracedRun& t) {
      return phase_ms(t, obs::Phase::kBody) +
             phase_ms(t, obs::Phase::kAcquireWait) +
             phase_ms(t, obs::Phase::kSteal);
    };
    const std::string pre = std::string(e) + ".";
    for (obs::Phase p : {obs::Phase::kAcquireWait, obs::Phase::kBody,
                         obs::Phase::kRelease, obs::Phase::kSteal,
                         obs::Phase::kMgmt})
      add(pre + obs::to_string(p) + "_ms", "ms", "obs",
          per_run([&](const TracedRun& t) { return phase_ms(t, p); }));
    add(pre + "unattributed_ms", "ms", "obs", per_run([&](const TracedRun& t) {
          double phases = 0;
          for (std::size_t p = 0; p < obs::kNumSpanPhases; ++p)
            phases += phase_ms(t, static_cast<obs::Phase>(p));
          return static_cast<double>(t.threads) * t.ms - phases;
        }));
    add(pre + "e_p", "ratio", "obs", per_run([&](const TracedRun& t) {
          const double u = useful_ms(t);
          return u > 0 ? phase_ms(t, obs::Phase::kBody) / u : 0.0;
        })).better = "higher";
    add(pre + "e_r", "ratio", "obs", per_run([&](const TracedRun& t) {
          const double cpu_ms = static_cast<double>(t.threads) * t.ms;
          return cpu_ms > 0 ? useful_ms(t) / cpu_ms : 0.0;
        })).better = "higher";
    for (obs::Counter c :
         {obs::Counter::kProtocolWaits, obs::Counter::kWakeupsIssued,
          obs::Counter::kWakeupsElided, obs::Counter::kSpinIters,
          obs::Counter::kTasksSkipped, obs::Counter::kQueuePushes})
      add(pre + obs::counter_name(c) + "_pt", "1/task", "obs",
          per_run([&](const TracedRun& t) {
            return static_cast<double>(
                       t.counters[static_cast<std::size_t>(c)]) /
                   n;
          }));
    const double traced = quantile(
        per_run([](const TracedRun& t) { return t.ms; }), kRunQuantile);
    exact(pre + "obs_overhead_pct", "%", "obs",
          run_ms(e) > 0 ? (traced / run_ms(e) - 1.0) * 100.0 : 0.0);
  }
  return out;
}

// --- output -----------------------------------------------------------------

std::string num(double v) { return support::json_double(v); }

void print_table(const WorkloadDef& def, std::uint64_t seed, const Bench& b,
                 const std::vector<Metric>& ms, std::ostream& os) {
  os << "== " << def.name << "  seed " << seed << "  rounds " << b.rounds()
     << "  workers " << kWorkers << "  attempted " << b.attempted()
     << "  failed " << b.failed() << "  (" << b.elapsed_s() << " s)\n";
  support::Table t({"metric", "unit", "value", "stat", "p25", "median", "p90",
                    "n", "layer"});
  for (const Metric& m : ms) {
    auto row = t.row();
    row.str(m.name).str(m.unit).num(m.value, 4).str(m.stat);
    if (m.samples.empty())
      row.str("").str("").str("").str("");
    else
      row.num(quantile(m.samples, 0.25), 4)
          .num(quantile(m.samples, 0.5), 4)
          .num(quantile(m.samples, 0.9), 4)
          .integer(static_cast<long long>(m.samples.size()));
    row.str(m.layer);
  }
  t.print(os);
  for (const std::string& f : b.failures()) os << "FAILED: " << f << "\n";
  os << std::endl;
}

void write_record(const WorkloadDef& def, std::uint64_t seed, bool quick,
                  bool trace, const Bench& b, const std::vector<Metric>& ms,
                  std::ostream& os) {
  os << "{\"workload\": " << support::json_quote(def.name)
     << ", \"seed\": " << seed << ", \"quick\": " << (quick ? "true" : "false")
     << ", \"trace\": " << (trace ? "true" : "false")
     << ", \"workers\": " << kWorkers << ", \"rounds\": " << b.rounds()
     << ", \"elapsed_s\": " << num(b.elapsed_s())
     << ", \"attempted\": " << b.attempted() << ", \"failed\": " << b.failed()
     << ", \"failures\": [";
  for (std::size_t i = 0; i < b.failures().size(); ++i)
    os << (i ? ", " : "") << support::json_quote(b.failures()[i]);
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    os << (i ? ",\n  " : "\n  ") << support::json_quote(m.name)
       << ": {\"value\": " << num(m.value)
       << ", \"unit\": " << support::json_quote(m.unit)
       << ", \"layer\": " << support::json_quote(m.layer)
       << ", \"better\": " << support::json_quote(m.better)
       << ", \"stat\": " << support::json_quote(m.stat);
    if (m.bound >= 0) os << ", \"bound\": " << num(m.bound);
    if (!m.samples.empty())
      os << ", \"n\": " << m.samples.size()
         << ", \"p25\": " << num(quantile(m.samples, 0.25))
         << ", \"median\": " << num(quantile(m.samples, 0.5))
         << ", \"p75\": " << num(quantile(m.samples, 0.75))
         << ", \"p90\": " << num(quantile(m.samples, 0.9));
    os << "}";
  }
  os << "}}\n";
}

/// The one-line summary: end-to-end metrics untraced, per-layer traced.
void write_summary(bool trace, const Bench& b, const std::vector<Metric>& ms,
                   std::ostream& os) {
  os << "{\"correct\": " << (b.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << b.attempted() << ", \"failed\": " << b.failed()
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : ms) {
    if ((m.layer == "e2e") == trace || kUnlisted.count(m.name) != 0) continue;
    os << (first ? "" : ", ") << support::json_quote(m.name)
       << ": {\"value\": " << num(m.value)
       << ", \"unit\": " << support::json_quote(m.unit) << "}";
    first = false;
  }
  os << "}}" << std::endl;
}

// --- arguments --------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rio_e2e: " << why << "\n"
            << "usage: rio_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick] [--json PATH]\n  workloads:";
  for (const WorkloadDef& d : kWorkloads) std::cerr << " " << d.name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
    usage(std::string("bad value for ") + flag + ": '" + s + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, json_path;
  std::uint64_t seed = 42;
  std::uint64_t seconds = static_cast<std::uint64_t>(kNominalSeconds);
  bool trace = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + std::string(a));
      return argv[++i];
    };
    if (a == "--workload") workload = value();
    else if (a == "--seed") seed = parse_uint(value(), "--seed");
    else if (a == "--seconds") seconds = parse_uint(value(), "--seconds");
    else if (a == "--trace") {
      const std::string_view v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      trace = v == "1";
    } else if (a == "--quick") quick = true;
    else if (a == "--json") json_path = value();
    else usage("unknown option '" + std::string(a) + "'");
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads)
    if (d.name == workload) def = &d;
  if (def == nullptr) usage("unknown or missing --workload '" + workload + "'");
  if (seconds < 1 || seconds > 3600) usage("--seconds must be in [1, 3600]");

  const std::uint64_t rounds =
      quick ? kQuickRounds
            : std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(std::llround(
                         static_cast<double>(def->rounds) *
                         static_cast<double>(seconds) / kNominalSeconds)));
  Bench bench(*def, seed, rounds, quick, trace);
  bench.run();
  const std::vector<Metric> ms = bench.metrics();

  print_table(*def, seed, bench, ms, std::cerr);
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    write_record(*def, seed, quick, trace, bench, ms, f);
    if (!f) {
      std::cerr << "rio_e2e: cannot write " << json_path << "\n";
      return 2;
    }
  }
  write_summary(trace, bench, ms, std::cout);
  return bench.failed() == 0 ? 0 : 3;
}
