#include "modelcheck/impl.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/vector_clock.hpp"
#include "coor/ready_ring.hpp"
#include "coor/sync_ops.hpp"
#include "support/assert.hpp"
#include "support/clock.hpp"
#include "rio/data_object.hpp"
#include "rio/pruning.hpp"
#include "modelcheck/spec.hpp"
#include "stf/dep_scanner.hpp"

namespace rio::mc::impl {
namespace {

using support::WaitPolicy;

/// Thrown into worker threads at teardown to unwind them out of the real
/// protocol code (the reason the seam'd templates are not noexcept).
struct AbortRun {};

/// Thread-local identity of the virtual worker executing this thread —
/// how an instrumented word knows who is announcing an operation.
thread_local std::uint32_t tl_worker = 0;

enum class OpKind : std::uint8_t {
  kLoad,      ///< acquire load (also the kBlock wait's probe read)
  kStore,     ///< release/relaxed store (SC interleaving model)
  kRmw,       ///< fetch_add
  kCas,       ///< compare_exchange: store operand2 iff word == operand
  kNotify,    ///< wake every worker parked on the word
  kWaitTest,  ///< spin-policy wait: enabled only when word == operand
  kWaitDiff,  ///< spin-policy wait: enabled only when word != operand
  kPark,      ///< kBlock wait: park iff word still == operand
  kPush,      ///< model ready-queue push (coor)
  kPop,       ///< model ready-queue pop (coor)
  kLock,      ///< acquire a mutex word: enabled while free, sets it held
};

/// Pseudo word id for the coor ready-queue ops: push/pop are mutually
/// dependent but independent of every real shared word.
constexpr int kQueueWord = -2;

struct Op {
  OpKind kind = OpKind::kLoad;
  int word = -1;
  std::uint64_t operand = 0;  ///< store value / rmw delta / expected value
  std::uint64_t operand2 = 0;  ///< kCas: the desired value
  std::uint64_t mask = ~std::uint64_t{0};  ///< value width of the word type
  bool write_like = false;
};

/// Two ops conflict when they touch the same word and at least one mutates
/// it (store / rmw / notify / push / pop). The DPOR backtrack rule and the
/// sleep-set independence filter both use this.
bool dependent(const Op& a, const Op& b) {
  if (a.word != b.word) return false;
  return a.write_like || b.write_like;
}

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kRmw: return "fetch_add";
    case OpKind::kCas: return "cas";
    case OpKind::kNotify: return "notify";
    case OpKind::kWaitTest: return "wait";
    case OpKind::kWaitDiff: return "wait-diff";
    case OpKind::kPark: return "park";
    case OpKind::kPush: return "push";
    case OpKind::kPop: return "pop";
    case OpKind::kLock: return "lock";
  }
  return "?";
}

/// Window-invariant expectation of one access: what the sequential prefix
/// says the shared words must hold when the owning task starts.
struct Expect {
  stf::DataId data = stf::kInvalidData;
  bool write = false;
  stf::TaskId expected_writer = rt::kNoWrite;
  std::uint64_t expected_reads = 0;
};

/// What the per-interleaving checks need, precomputed once per verify().
struct CheckPlan {
  const stf::TaskFlow* flow = nullptr;
  std::vector<std::uint64_t> conflict;        ///< per task: conflict bitmask
  std::vector<std::vector<Expect>> expect;    ///< per task (empty for coor)
  bool check_window = false;                  ///< rio / rio-pruned only
};

struct Violation {
  std::string kind;     // deadlock | lost-wakeup | refinement | in-order
  std::string message;
};

/// The controlled scheduler: real threads, one runnable between any two
/// scheduling points. Workers announce their next shared-word operation
/// and block; the explorer grants exactly one; the granted worker applies
/// the effect under the lock and runs undisturbed until its next
/// announcement. Everything (word values, queue, check state) is guarded
/// by `mu`, and because execution is serialized the real code's
/// non-word shared state (e.g. COOR successor lists) is race-free by
/// construction.
class Controlled {
 public:
  enum class SlotState : std::uint8_t { kRunning, kAtPoint, kParked, kDone };

  struct Slot {
    SlotState state = SlotState::kRunning;
    Op op{};
    bool woken = false;
  };

  Controlled(std::uint32_t n_threads, bool drop_notify)
      : slots_(n_threads), drop_notify_(drop_notify) {}

  int new_word(std::uint64_t init) {
    words_.push_back(init);
    return static_cast<int>(words_.size()) - 1;
  }

  void set_checks(CheckPlan plan) { checks_ = std::move(plan); }
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }
  void configure_pop_exit(int word, std::uint64_t target) {
    pop_exit_word_ = word;
    pop_exit_target_ = target;
  }

  // ---- worker side --------------------------------------------------------

  /// Announce `op`, block until granted, apply the effect, return the
  /// result (old value for rmw, current for loads). kPark additionally
  /// blocks until a notify wakes the worker (or the park fails because the
  /// value moved).
  std::uint64_t perform(const Op& op) {
    const std::uint32_t w = tl_worker;
    std::unique_lock lk(mu_);
    slots_[w].op = op;
    slots_[w].state = SlotState::kAtPoint;
    cv_.notify_all();
    cv_.wait(lk, [&] { return teardown_ || grant_ == static_cast<int>(w); });
    if (teardown_) throw AbortRun{};
    grant_ = -1;
    slots_[w].state = SlotState::kRunning;
    std::uint64_t result = 0;
    bool parked = false;
    switch (op.kind) {
      case OpKind::kLoad:
      case OpKind::kWaitTest:
      case OpKind::kWaitDiff:
        result = words_[op.word];
        break;
      case OpKind::kStore:
        words_[op.word] = op.operand & op.mask;
        break;
      case OpKind::kRmw:
        result = words_[op.word];
        words_[op.word] = (result + op.operand) & op.mask;
        break;
      case OpKind::kCas:
        result = words_[op.word];
        if (result == op.operand) words_[op.word] = op.operand2 & op.mask;
        break;
      case OpKind::kNotify:
        if (!drop_notify_) {
          for (Slot& s : slots_)
            if (s.state == SlotState::kParked && s.op.word == op.word)
              s.woken = true;
        }
        break;
      case OpKind::kPark:
        if (words_[op.word] == op.operand) {
          parked = true;
        } else {
          result = 1;  // value already moved: park fails, caller re-probes
        }
        break;
      case OpKind::kPush:
        ready_.push_back(op.operand);
        break;
      case OpKind::kPop:
        if (!ready_.empty()) {
          result = ready_.front() + 1;
          ready_.pop_front();
        } else {
          result = 0;  // exit: every task completed
        }
        break;
      case OpKind::kLock:
        words_[op.word] = 1;  // only granted while free
        break;
    }
    if (parked) {
      slots_[w].state = SlotState::kParked;
      cv_.notify_all();
      cv_.wait(lk, [&] { return teardown_ || slots_[w].woken; });
      if (teardown_) throw AbortRun{};
      slots_[w].woken = false;
      slots_[w].state = SlotState::kRunning;
      return 0;
    }
    cv_.notify_all();
    return result;
  }

  void queue_push(std::uint64_t v) {
    Op op;
    op.kind = OpKind::kPush;
    op.word = kQueueWord;
    op.operand = v;
    op.write_like = true;
    perform(op);
  }

  std::optional<std::uint64_t> queue_pop() {
    Op op;
    op.kind = OpKind::kPop;
    op.word = kQueueWord;
    op.write_like = true;
    const std::uint64_t r = perform(op);
    if (r == 0) return std::nullopt;
    return r - 1;
  }

  /// Scheduler-level mutex on a word: lock is enabled only while the word
  /// is 0 (models the per-node std::mutex COOR holds around finished /
  /// successors / dep_retain — the checker must not explore interleavings
  /// the real lock forbids).
  void lock(int word) {
    Op op;
    op.kind = OpKind::kLock;
    op.word = word;
    op.write_like = true;
    perform(op);
  }

  void unlock(int word) {
    Op op;
    op.kind = OpKind::kStore;
    op.word = word;
    op.operand = 0;
    op.write_like = true;
    perform(op);
  }

  /// Task-begin event with the inline checks. Not a scheduling point: the
  /// caller is the only thread running, the lock just orders it against
  /// the explorer's bookkeeping.
  void task_started(stf::TaskId t) {
    bool fail = false;
    {
      std::unique_lock lk(mu_);
      start_order_.push_back(t);
      const std::uint64_t bit = std::uint64_t{1} << t;
      const std::uint64_t earlier = bit - 1;
      const std::uint64_t missing =
          checks_.conflict[t] & earlier & ~terminated_;
      if (missing != 0) {
        std::ostringstream os;
        os << "task " << t << " started before earlier conflicting task(s)";
        for (std::uint32_t p = 0; p < 64; ++p)
          if ((missing >> p) & 1u) os << ' ' << p;
        os << " terminated (STFSpec guard violated)";
        raise_locked("refinement", os.str());
        fail = true;
      } else if (checks_.check_window) {
        for (const Expect& e : checks_.expect[t]) {
          const std::uint64_t writer = words_[data_words_[e.data].first];
          if (writer != e.expected_writer) {
            std::ostringstream os;
            os << "task " << t << " started with last_executed_write("
               << e.data << ") = " << static_cast<std::int64_t>(
                      static_cast<std::uint64_t>(writer) == wide_no_write_
                          ? -1
                          : static_cast<std::int64_t>(writer))
               << ", expected "
               << (e.expected_writer == rt::kNoWrite
                       ? std::int64_t{-1}
                       : static_cast<std::int64_t>(e.expected_writer))
               << " (in-order window invariant violated)";
            raise_locked("in-order", os.str());
            fail = true;
            break;
          }
          if (e.write &&
              words_[data_words_[e.data].second] != e.expected_reads) {
            std::ostringstream os;
            os << "task " << t << " started with nb_reads_since_write("
               << e.data << ") = " << words_[data_words_[e.data].second]
               << ", expected " << e.expected_reads
               << " (in-order window invariant violated)";
            raise_locked("in-order", os.str());
            fail = true;
            break;
          }
        }
      }
    }
    if (fail) throw AbortRun{};
  }

  void task_finished(stf::TaskId t) {
    std::unique_lock lk(mu_);
    terminated_ |= std::uint64_t{1} << t;
  }

  void mark_done() {
    std::unique_lock lk(mu_);
    slots_[tl_worker].state = SlotState::kDone;
    cv_.notify_all();
  }

  // ---- explorer side ------------------------------------------------------

  enum class Phase : std::uint8_t { kChoice, kAllDone, kStuck, kViolation };

  /// Block until every thread is announced / parked / done, then report
  /// what the explorer can do. `enabled`/`ops` are filled for kChoice.
  Phase wait_quiescent(std::vector<std::uint32_t>& enabled,
                       std::vector<Op>& ops) {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return violation_.has_value() || quiescent_locked(); });
    if (violation_) return Phase::kViolation;
    enabled.clear();
    ops.clear();
    bool all_done = true;
    for (std::uint32_t w = 0; w < slots_.size(); ++w) {
      const Slot& s = slots_[w];
      if (s.state != SlotState::kDone) all_done = false;
      if (s.state != SlotState::kAtPoint) continue;
      if (s.op.kind == OpKind::kWaitTest &&
          words_[s.op.word] != s.op.operand)
        continue;  // spin wait: disabled until the word reaches the value
      if (s.op.kind == OpKind::kWaitDiff &&
          words_[s.op.word] == s.op.operand)
        continue;  // spin wait-for-change: disabled while unchanged
      if (s.op.kind == OpKind::kLock && words_[s.op.word] != 0)
        continue;  // mutex held
      if (s.op.kind == OpKind::kPop && ready_.empty() &&
          !(pop_exit_word_ >= 0 &&
            words_[pop_exit_word_] == pop_exit_target_))
        continue;  // empty queue and the run is not finished yet
      enabled.push_back(w);
      ops.push_back(s.op);
    }
    if (all_done) return Phase::kAllDone;
    if (enabled.empty()) return Phase::kStuck;
    return Phase::kChoice;
  }

  void grant(std::uint32_t w) {
    std::unique_lock lk(mu_);
    grant_ = static_cast<int>(w);
    cv_.notify_all();
  }

  void teardown() {
    std::unique_lock lk(mu_);
    teardown_ = true;
    cv_.notify_all();
  }

  /// Classify a stuck state: a worker parked on a word whose value already
  /// moved past its observation is a lost wakeup (the store was not
  /// followed by the notify the seam contract requires); anything else is
  /// a protocol deadlock.
  Violation classify_stuck() {
    std::unique_lock lk(mu_);
    for (std::uint32_t w = 0; w < slots_.size(); ++w) {
      const Slot& s = slots_[w];
      if (s.state == SlotState::kParked && words_[s.op.word] != s.op.operand) {
        std::ostringstream os;
        os << "worker " << w << " is parked on word " << s.op.word
           << " having observed " << s.op.operand << ", but the word now"
           << " holds " << words_[s.op.word]
           << " and no notify will ever arrive";
        return {"lost-wakeup", os.str()};
      }
    }
    std::ostringstream os;
    os << "no runnable worker with tasks outstanding:";
    for (std::uint32_t w = 0; w < slots_.size(); ++w) {
      const Slot& s = slots_[w];
      if (s.state == SlotState::kDone) continue;
      os << " [worker " << w << ' '
         << (s.state == SlotState::kParked ? "parked" : kind_name(s.op.kind))
         << " word " << s.op.word << ']';
    }
    return {"deadlock", os.str()};
  }

  [[nodiscard]] bool all_tasks_terminated(std::uint64_t all_mask) {
    std::unique_lock lk(mu_);
    return (terminated_ & all_mask) == all_mask;
  }

  /// Completion frontier right now — what a supervisor capture at this
  /// scheduling point would checkpoint (recovery mode).
  [[nodiscard]] std::uint64_t terminated_mask() {
    std::unique_lock lk(mu_);
    return terminated_;
  }

  [[nodiscard]] std::optional<Violation> violation() {
    std::unique_lock lk(mu_);
    return violation_;
  }

  /// data -> (writer word id, reads word id), for the window checks.
  std::vector<std::pair<int, int>> data_words_;

 private:
  bool quiescent_locked() const {
    if (grant_ != -1) return false;
    for (const Slot& s : slots_) {
      if (s.state == SlotState::kRunning) return false;
      if (s.state == SlotState::kParked && s.woken) return false;
    }
    return true;
  }

  void raise_locked(std::string kind, std::string message) {
    if (!violation_) violation_ = Violation{std::move(kind), std::move(message)};
    teardown_ = true;
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> words_;
  std::deque<std::uint64_t> ready_;
  int grant_ = -1;
  bool teardown_ = false;
  bool drop_notify_ = false;
  int pop_exit_word_ = -1;
  std::uint64_t pop_exit_target_ = 0;
  CheckPlan checks_;
  std::uint64_t terminated_ = 0;
  std::vector<stf::TaskId> start_order_;
  std::optional<Violation> violation_;
  std::uint64_t wide_no_write_ = static_cast<std::uint64_t>(rt::kNoWrite);
};

// ---------------------------------------------------------------------------
// The instrumented word type. ADL on these free functions is what routes
// the real protocol templates (rio::rt::acquire_for & friends,
// rio::coor::dep_retain/dep_release) into the scheduler.
// ---------------------------------------------------------------------------

template <typename T>
struct Word {
  Controlled* c = nullptr;
  int id = -1;
};

template <typename T>
constexpr std::uint64_t enc(T v) {
  return static_cast<std::uint64_t>(static_cast<std::make_unsigned_t<T>>(v));
}
template <typename T>
constexpr T dec(std::uint64_t raw) {
  return static_cast<T>(
      static_cast<std::make_unsigned_t<T>>(raw & enc(static_cast<T>(~T{}))));
}
template <typename T>
constexpr std::uint64_t width_mask() {
  return enc(static_cast<T>(~T{}));
}

template <typename T>
T load_acq(const Word<T>& w) {
  Op op;
  op.kind = OpKind::kLoad;
  op.word = w.id;
  op.mask = width_mask<T>();
  return dec<T>(w.c->perform(op));
}

template <typename T>
void store_rel(Word<T>& w, T value) {
  Op op;
  op.kind = OpKind::kStore;
  op.word = w.id;
  op.operand = enc(value);
  op.mask = width_mask<T>();
  op.write_like = true;
  w.c->perform(op);
}

template <typename T>
void store_rlx(Word<T>& w, T value) {
  // SC interleaving model: relaxed and release stores are the same step.
  store_rel(w, value);
}

template <typename T>
T fetch_add(Word<T>& w, T delta) {
  Op op;
  op.kind = OpKind::kRmw;
  op.word = w.id;
  op.operand = enc(delta);
  op.mask = width_mask<T>();
  op.write_like = true;
  return dec<T>(w.c->perform(op));
}

template <typename T>
bool cas(Word<T>& w, T& expected, T desired) {
  Op op;
  op.kind = OpKind::kCas;
  op.word = w.id;
  op.operand = enc(expected);
  op.operand2 = enc(desired);
  op.mask = width_mask<T>();
  op.write_like = true;
  const std::uint64_t old = w.c->perform(op);
  if (old == enc(expected)) return true;
  expected = dec<T>(old);
  return false;
}

template <typename T>
void notify(Word<T>& w, WaitPolicy policy) {
  if (policy != WaitPolicy::kBlock) return;  // production makes no syscall
  Op op;
  op.kind = OpKind::kNotify;
  op.word = w.id;
  op.write_like = true;
  w.c->perform(op);
}

template <typename T>
bool wait_equal(const Word<T>& w, T expected, WaitPolicy policy,
                const std::atomic<bool>* /*abort*/ = nullptr,
                std::uint64_t* /*spins*/ = nullptr) {
  if (policy != WaitPolicy::kBlock) {
    // Spin model: one await step, enabled only once the word holds the
    // value (fair abstraction of a pure equality spin).
    Op op;
    op.kind = OpKind::kWaitTest;
    op.word = w.id;
    op.operand = enc(expected);
    op.mask = width_mask<T>();
    w.c->perform(op);
    return true;
  }
  // kBlock model follows std::atomic::wait / futex semantics exactly:
  // probe the word; if unwanted, park atomically iff it STILL holds the
  // probed value; a parked worker is woken ONLY by a notify on that word.
  // A dropped notify therefore leaves the worker parked forever — the
  // state the lost-wakeup check flags.
  for (;;) {
    Op probe;
    probe.kind = OpKind::kLoad;
    probe.word = w.id;
    probe.mask = width_mask<T>();
    const std::uint64_t v = w.c->perform(probe);
    if (v == enc(expected)) return true;
    Op park;
    park.kind = OpKind::kPark;
    park.word = w.id;
    park.operand = v;
    park.mask = width_mask<T>();
    w.c->perform(park);  // blocks while parked; returns woken or failed
  }
}

/// Waits until the word no longer holds `old` — the doorbell-parking
/// primitive (rio bells, ready-ring version word). Same futex-faithful
/// probe/park structure as wait_equal, with the inverted condition.
template <typename T>
void wait_changed(const Word<T>& w, T old, WaitPolicy policy,
                  std::uint64_t* /*spins*/ = nullptr) {
  if (policy != WaitPolicy::kBlock) {
    // Spin model: one await step, enabled only once the word moved (fair
    // abstraction of a pure inequality spin).
    Op op;
    op.kind = OpKind::kWaitDiff;
    op.word = w.id;
    op.operand = enc(old);
    op.mask = width_mask<T>();
    w.c->perform(op);
    return;
  }
  for (;;) {
    Op probe;
    probe.kind = OpKind::kLoad;
    probe.word = w.id;
    probe.mask = width_mask<T>();
    const std::uint64_t v = w.c->perform(probe);
    if (v != enc(old)) return;
    Op park;
    park.kind = OpKind::kPark;
    park.word = w.id;
    park.operand = v;
    park.mask = width_mask<T>();
    w.c->perform(park);
  }
}

/// The shape rio::rt::acquire_for / publish_* expect: `.value` wrapping.
template <typename T>
struct Cell {
  Word<T> value;
};

struct ModelShared {
  Cell<stf::TaskId> last_executed_write;
  Cell<std::uint64_t> nb_reads_since_write;
};

// ---------------------------------------------------------------------------
// Explorer: stateless DFS over schedules with sleep sets + clock-vector
// backtracking (Flanagan–Godefroid DPOR), or naive full enumeration.
// ---------------------------------------------------------------------------

class Explorer {
 public:
  Explorer(const stf::TaskFlow& flow, const rt::Mapping& mapping,
           const Options& opts)
      : flow_(flow), mapping_(mapping), opts_(opts) {
    n_threads_ = opts.workers + (opts.engine == EngineKind::kCoor ? 1 : 0);
    build_check_plan();
    if (opts.engine == EngineKind::kRioPruned) {
      // The production pruned path compiles its plan from an image; the
      // image (and the plan) live as long as the exploration.
      image_ = stf::FlowImage::compile(flow_);
      pruned_.emplace(image_, mapping_, opts.workers);
    }
  }

  /// Recovery phase 1: the thread executing `crash_task` dies right after
  /// that task's body (terminate never published). Crash-induced quiescent
  /// states become accepted run ends instead of deadlock violations, and
  /// every completion frontier passed through — any of which the
  /// supervisor could capture — lands in `frontiers`.
  void set_crash(stf::TaskId crash_task, std::set<std::uint64_t>* frontiers) {
    crash_mode_ = true;
    crash_task_ = crash_task;
    frontiers_ = frontiers;
  }

  Result explore() {
    support::Stopwatch sw;
    Result res;
    for (;;) {
      if (res.explored + res.pruned >= opts_.max_interleavings) {
        res.truncated = true;
        break;
      }
      const RunEnd end = run_one(nullptr, res);
      if (end == RunEnd::kViolation) break;
      if (end == RunEnd::kComplete)
        ++res.explored;
      else
        ++res.pruned;  // sleep-blocked or bound-truncated branch
      if (!backtrack()) break;  // search space exhausted
    }
    res.seconds = sw.elapsed_s();
    return res;
  }

  Result replay(const std::vector<std::uint32_t>& schedule) {
    support::Stopwatch sw;
    Result res;
    const RunEnd end = run_one(&schedule, res);
    if (end == RunEnd::kComplete) ++res.explored;
    res.seconds = sw.elapsed_s();
    return res;
  }

 private:
  enum class RunEnd : std::uint8_t { kComplete, kViolation, kPruned };

  struct Frame {
    std::vector<std::uint32_t> enabled;
    std::vector<Op> ops;                  ///< pending op of enabled[i]
    std::vector<std::uint32_t> backtrack; ///< workers to explore here
    std::vector<std::uint32_t> explored;  ///< workers already explored
    std::vector<std::uint32_t> sleep;     ///< sleep set on entry
    std::uint32_t chosen = 0;
    Op chosen_op{};
    std::uint32_t prev = 0;               ///< worker of the preceding step
    bool prev_enabled = false;            ///< ... and is it enabled here?
    std::uint32_t preemptions = 0;        ///< accumulated before this state
  };

  void build_check_plan() {
    const std::size_t n = flow_.num_tasks();
    SpecProblem spec(flow_, opts_.workers);
    plan_.flow = &flow_;
    plan_.conflict.resize(n);
    for (std::uint32_t t = 0; t < n; ++t)
      plan_.conflict[t] = spec.conflict_mask(t);
    plan_.check_window = opts_.engine != EngineKind::kCoor;
    if (plan_.check_window) {
      // Same sequential scan the pruned-plan compiler performs: the shared
      // words a task must observe on start are fully determined by the
      // prefix of the flow.
      plan_.expect.resize(n);
      struct Scan {
        stf::TaskId last_writer = rt::kNoWrite;
        std::uint64_t reads = 0;
      };
      std::vector<Scan> scan(flow_.num_data());
      for (const stf::Task& task : flow_.tasks()) {
        for (const stf::Access& a : task.accesses) {
          Expect e;
          e.data = a.data;
          e.write = stf::is_write(a.mode);
          e.expected_writer = scan[a.data].last_writer;
          e.expected_reads = scan[a.data].reads;
          plan_.expect[task.id].push_back(e);
        }
        for (const stf::Access& a : task.accesses) {
          if (stf::is_write(a.mode)) {
            scan[a.data].last_writer = task.id;
            scan[a.data].reads = 0;
          } else {
            scan[a.data].reads += 1;
          }
        }
      }
    }
  }

  static bool contains(const std::vector<std::uint32_t>& v, std::uint32_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }

  /// One execution: replay stack_ prefix choices, then continue with the
  /// default policy, extending stack_ and computing DPOR backtrack points.
  /// With `forced`, follow that schedule instead (no stack_, no DPOR).
  RunEnd run_one(const std::vector<std::uint32_t>* forced, Result& res) {
    Controlled ctl(n_threads_, opts_.drop_notify);
    ctl.set_checks(plan_);

    const std::size_t n_tasks = flow_.num_tasks();
    const std::size_t n_data = flow_.num_data();

    // ---- engine state + bodies (real protocol code) ----------------------
    const WaitPolicy policy = opts_.policy;
    std::vector<ModelShared> shared;
    struct CoorNode {
      Word<std::int32_t> remaining;
      int mu = -1;  ///< model of the per-node std::mutex (a lock word)
      bool finished = false;
      std::vector<std::uint64_t> succs;
    };
    std::vector<CoorNode> nodes;
    Word<std::uint64_t> completed;
    // Per-worker doorbells: the rio engines' kBlock path parks on bells
    // and rings them at the release boundary, exactly as the production
    // launch() engages them for every block run.
    std::vector<Word<std::uint64_t>> bells;
    const bool use_bells =
        opts_.engine != EngineKind::kCoor && policy == WaitPolicy::kBlock;
    // kCoor + kRing: the REAL ReadyRingT code instantiated on the
    // instrumented word type — CAS slot claims, version/waiters doorbell
    // pair and all. kOneStep keeps the one-step queue abstraction.
    std::optional<coor::ReadyRingT<Word<std::uint64_t>>> ring;

    if (opts_.engine != EngineKind::kCoor) {
      shared.resize(n_data);
      ctl.data_words_.resize(n_data);
      for (std::size_t d = 0; d < n_data; ++d) {
        const int ww = ctl.new_word(enc(rt::kNoWrite));
        const int rw = ctl.new_word(0);
        shared[d].last_executed_write.value = {&ctl, ww};
        shared[d].nb_reads_since_write.value = {&ctl, rw};
        ctl.data_words_[d] = {ww, rw};
      }
      if (use_bells) {
        bells.resize(opts_.workers);
        for (auto& b : bells) b = {&ctl, ctl.new_word(0)};
      }
    } else {
      nodes.resize(n_tasks);
      for (auto& node : nodes) {
        node.remaining = {&ctl, ctl.new_word(enc(std::int32_t{1}))};
        node.mu = ctl.new_word(0);
      }
      completed = {&ctl, ctl.new_word(0)};
      if (opts_.queue == CoorQueue::kRing) {
        ring.emplace(std::max<std::size_t>(n_tasks, 1),
                     [&](Word<std::uint64_t>& wd, std::uint64_t v) {
                       wd = {&ctl, ctl.new_word(v)};
                     });
      } else {
        ctl.configure_pop_exit(completed.id, n_tasks);
      }
    }

    // The owned-task path both rio engines share, as the production
    // execute_owned() runs it minus telemetry: get_* every access, the
    // task start/finish markers, terminate_*, then — under kBlock — the
    // waits park on the worker's bell and the release boundary of a task
    // with accesses rings every peer's bell (the production doorbell
    // gate). Returns false when the worker dies on this task.
    auto execute_owned = [&](std::uint32_t w, const stf::Task& task,
                             std::vector<rt::LocalDataState>& local) {
      Word<std::uint64_t>* bell = use_bells ? &bells[w] : nullptr;
      for (const stf::Access& a : task.accesses) {
        if (stf::is_write(a.mode))
          rt::get_write(shared[a.data], local[a.data], policy, nullptr,
                        nullptr, bell);
        else
          rt::get_read(shared[a.data], local[a.data], policy, nullptr,
                       nullptr, bell);
      }
      ctl.task_started(task.id);
      if (crash_mode_ && task.id == crash_task_) return false;
      ctl.task_finished(task.id);
      for (const stf::Access& a : task.accesses) {
        if (stf::is_write(a.mode))
          rt::terminate_write(shared[a.data], local[a.data], task.id);
        else
          rt::terminate_read(shared[a.data], local[a.data]);
      }
      if (use_bells && !task.accesses.empty()) {
        for (std::uint32_t peer = 0; peer < opts_.workers; ++peer)
          if (peer != w) rt::ring_doorbell(bells[peer], policy);
      }
      return true;
    };

    auto body = [&](std::uint32_t w) {
      switch (opts_.engine) {
        case EngineKind::kRio: {
          // Algorithm 1: unroll the whole flow, execute own tasks through
          // the real Algorithm 2 routines, declare the rest.
          std::vector<rt::LocalDataState> local(n_data);
          for (stf::TaskId t = 0; t < n_tasks; ++t) {
            const stf::Task& task = flow_.task(t);
            if (mapping_(t) == w) {
              if (!execute_owned(w, task, local)) return;  // worker dies
            } else {
              for (const stf::Access& a : task.accesses) {
                if (stf::is_write(a.mode))
                  rt::declare_write(local[a.data], t);
                else
                  rt::declare_read(local[a.data]);
              }
            }
          }
          break;
        }
        case EngineKind::kRioPruned: {
          // Pruning: walk only this worker's plan slice and seed the
          // replica from the plan's expectations instead of declaring.
          std::vector<rt::LocalDataState> local(n_data);
          for (const std::uint32_t i : pruned_->tasks_for(w)) {
            const stf::FlowImage::Span s = image_.spans()[i];
            for (std::uint32_t k = s.begin; k != s.end; ++k) {
              const rt::PrunedSeed& seed = pruned_->seed(k);
              local[image_.accesses()[k].data] = {seed.expected_writer,
                                                  seed.expected_reads};
            }
            if (!execute_owned(w, image_.task(i), local)) return;
          }
          break;
        }
        case EngineKind::kCoor: {
          if (w == opts_.workers) {
            // Master: real incremental dependency discovery, dependency
            // counters through the real coor::sync_ops seam.
            stf::DependencyScanner scanner(n_data);
            std::vector<stf::TaskId> preds;
            for (stf::TaskId li = 0; li < n_tasks; ++li) {
              scanner.next(flow_.task(li), li, preds);
              for (stf::TaskId prev : preds) {
                // Real code: std::lock_guard on nodes[prev].mu around the
                // finished check, successor registration, and retain.
                ctl.lock(nodes[prev].mu);
                if (!nodes[prev].finished) {
                  nodes[prev].succs.push_back(li);
                  coor::dep_retain(nodes[li].remaining);
                }
                ctl.unlock(nodes[prev].mu);
              }
              if (coor::dep_release(nodes[li].remaining)) {
                if (ring)
                  ring->push(li, policy);
                else
                  ctl.queue_push(li);
              }
            }
            // Empty flow: nobody completes a task, so the master closes.
            if (ring && n_tasks == 0) ring->close(policy);
          } else {
            for (;;) {
              const std::optional<std::uint64_t> li =
                  ring ? ring->pop_blocking(policy, nullptr)
                       : ctl.queue_pop();
              if (!li) break;
              ctl.task_started(*li);
              // Crash: the worker that popped the task dies before
              // complete() — no finished mark, no successor releases, no
              // completed bump, no ring close.
              if (crash_mode_ && *li == crash_task_) return;
              ctl.task_finished(*li);
              // Engine::complete: mark finished + take the successor list
              // under the node mutex, then release each successor outside
              // it — exactly the production complete().
              ctl.lock(nodes[*li].mu);
              nodes[*li].finished = true;
              std::vector<std::uint64_t> succs = std::move(nodes[*li].succs);
              nodes[*li].succs.clear();
              ctl.unlock(nodes[*li].mu);
              for (std::uint64_t s : succs)
                if (coor::dep_release(nodes[s].remaining)) {
                  if (ring)
                    ring->push(s, policy);
                  else
                    ctl.queue_push(s);
                }
              // The last completer closes the ring — the production
              // Engine::complete's done transition.
              if (fetch_add(completed, std::uint64_t{1}) + 1 == n_tasks &&
                  ring)
                ring->close(policy);
            }
          }
          break;
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(n_threads_);
    for (std::uint32_t w = 0; w < n_threads_; ++w)
      threads.emplace_back([&, w] {
        tl_worker = w;
        try {
          body(w);
        } catch (const AbortRun&) {
        }
        ctl.mark_done();
      });

    // ---- schedule loop ---------------------------------------------------
    // Happens-before tracking for DPOR: per-thread clocks plus per-word
    // write/read release clocks — the same scheme (and the same
    // VectorClocks) as the analysis:: happens-before race checker.
    const std::size_t n_words = ctl.num_words() + 1;  // + the queue word
    analysis::VectorClocks tc(n_threads_, n_threads_);
    analysis::VectorClocks wrel(n_words, n_threads_);
    analysis::VectorClocks rrel(n_words, n_threads_);
    // Most recent step per (word, thread), split by write-likeness.
    std::vector<std::vector<std::int64_t>> last_any(
        n_words, std::vector<std::int64_t>(n_threads_, -1));
    std::vector<std::vector<std::int64_t>> last_write(
        n_words, std::vector<std::int64_t>(n_threads_, -1));
    auto word_row = [&](int word) -> std::size_t {
      return word == kQueueWord ? n_words - 1
                                : static_cast<std::size_t>(word);
    };

    const std::uint64_t all_mask =
        n_tasks >= 64 ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << n_tasks) - 1);
    RunEnd end = RunEnd::kComplete;
    std::size_t step = 0;
    std::vector<std::uint32_t> enabled;
    std::vector<Op> ops;
    std::vector<std::uint32_t> schedule;

    for (;;) {
      const Controlled::Phase phase = ctl.wait_quiescent(enabled, ops);
      // Recovery phase 1: every quiescent point's completion frontier is a
      // state the supervisor could capture — the watchdog aborts survivors
      // mid-flight, so intermediate frontiers matter, not just final ones.
      if (crash_mode_ && forced == nullptr && frontiers_ != nullptr)
        frontiers_->insert(ctl.terminated_mask());
      if (phase == Controlled::Phase::kViolation) {
        const Violation v = *ctl.violation();
        record_violation(res, v, schedule);
        end = RunEnd::kViolation;
        break;
      }
      if (phase == Controlled::Phase::kAllDone) {
        if (!crash_mode_ && !ctl.all_tasks_terminated(all_mask)) {
          record_violation(
              res,
              {"deadlock",
               "run finished with unexecuted tasks (dispatch was lost)"},
              schedule);
          end = RunEnd::kViolation;
        }
        break;
      }
      if (phase == Controlled::Phase::kStuck) {
        const Violation v = ctl.classify_stuck();
        if (crash_mode_ && v.kind != "lost-wakeup") {
          // Expected worker-loss quiescence: survivors blocked on the dead
          // worker's never-published terminates (or an empty queue). The
          // supervisor's job starts here; lost wakeups stay violations —
          // a dropped notify is a protocol bug with or without a crash.
          break;
        }
        record_violation(res, v, schedule);
        end = RunEnd::kViolation;
        break;
      }
      if (step >= opts_.max_steps_per_run) {
        res.truncated = true;
        end = RunEnd::kPruned;
        break;
      }

      std::uint32_t choice = 0;
      if (forced != nullptr) {
        if (step >= forced->size() || !contains(enabled, (*forced)[step])) {
          record_violation(
              res, {"deadlock", "witness schedule does not replay"}, schedule);
          end = RunEnd::kViolation;
          break;
        }
        choice = (*forced)[step];
      } else if (step < stack_.size()) {
        choice = stack_[step].chosen;  // replaying the DFS prefix
      } else {
        // New state: snapshot, inherit the filtered sleep set, choose.
        Frame f;
        f.enabled = enabled;
        f.ops = ops;
        f.prev = schedule.empty() ? n_threads_ : schedule.back();
        f.prev_enabled = contains(enabled, f.prev);
        if (!stack_.empty()) {
          const Frame& p = stack_.back();
          f.preemptions = p.preemptions +
                          (p.prev_enabled && p.chosen != p.prev ? 1 : 0);
          if (opts_.dpor) {
            for (std::uint32_t s : p.sleep) {
              // A sleeping worker stays asleep while its pending op is
              // independent of what was just executed.
              const Op* sop = pending_op(p, s);
              if (sop != nullptr && !dependent(*sop, p.chosen_op))
                f.sleep.push_back(s);
            }
          }
        }
        bool found = false;
        bool bound_cut = false;
        // Prefer continuing the previous worker (fewer preemptions).
        std::vector<std::uint32_t> order;
        if (f.prev_enabled) order.push_back(f.prev);
        for (std::uint32_t w : enabled)
          if (w != f.prev) order.push_back(w);
        for (std::uint32_t w : order) {
          if (contains(f.sleep, w)) continue;
          if (exceeds_bound(f, w)) {
            bound_cut = true;
            continue;
          }
          choice = w;
          found = true;
          break;
        }
        if (!found) {
          // Sleep-blocked (every enabled worker is redundant here) or the
          // preemption bound cut the branch off.
          if (bound_cut) res.truncated = true;
          end = RunEnd::kPruned;
          break;
        }
        f.chosen = choice;
        f.chosen_op = *pending_op_of(enabled, ops, choice);
        if (opts_.dpor) {
          f.backtrack.push_back(choice);
        } else {
          f.backtrack = enabled;  // naive: explore every branch
        }
        f.explored.push_back(choice);
        stack_.push_back(std::move(f));
      }

      const Op op = *pending_op_of(enabled, ops, choice);
      if (forced == nullptr && step < stack_.size()) {
        stack_[step].chosen_op = op;
        // DPOR backtrack rule: find the most recent step on the same word,
        // dependent with this op, by another thread, not already ordered
        // before us by happens-before; that step's state must also try
        // running us first.
        const std::size_t row = word_row(op.word);
        std::int64_t j = -1;
        const auto& table = op.write_like ? last_any : last_write;
        for (std::uint32_t p = 0; p < n_threads_; ++p) {
          if (p == choice) continue;
          j = std::max(j, table[row][p]);
        }
        if (j >= 0 && opts_.dpor) {
          const Frame& fj = stack_[static_cast<std::size_t>(j)];
          const bool ordered =
              tc.row(choice)[fj.chosen] >= clock_at_[static_cast<std::size_t>(j)];
          if (!ordered) {
            Frame& target = stack_[static_cast<std::size_t>(j)];
            if (contains(target.enabled, choice)) {
              if (!contains(target.backtrack, choice))
                target.backtrack.push_back(choice);
            } else {
              for (std::uint32_t e : target.enabled)
                if (!contains(target.backtrack, e))
                  target.backtrack.push_back(e);
            }
          }
        }
        // Advance the clocks (write-likes synchronize with everything on
        // the word; reads only with write-likes).
        tc.row(choice)[choice] += 1;
        tc.join(choice, wrel.row(row));
        if (op.write_like) {
          tc.join(choice, rrel.row(row));
          wrel.assign(row, tc.row(choice));
        } else {
          rrel.join(row, tc.row(choice));
        }
        if (clock_at_.size() <= static_cast<std::size_t>(step))
          clock_at_.resize(step + 1);
        clock_at_[step] = tc.row(choice)[choice];
        last_any[row][choice] = static_cast<std::int64_t>(step);
        if (op.write_like)
          last_write[row][choice] = static_cast<std::int64_t>(step);
      }

      schedule.push_back(choice);
      ctl.grant(choice);
      ++step;
      ++res.steps;
    }

    ctl.teardown();
    for (std::thread& t : threads) t.join();
    if (end != RunEnd::kComplete && forced == nullptr) {
      // The aborted suffix of the stack must not survive into the next
      // iteration (the frames past the abort point were never completed).
      if (end == RunEnd::kPruned && stack_.size() > step)
        stack_.resize(step);
    }
    return end;
  }

  static const Op* pending_op_of(const std::vector<std::uint32_t>& enabled,
                                 const std::vector<Op>& ops,
                                 std::uint32_t w) {
    for (std::size_t i = 0; i < enabled.size(); ++i)
      if (enabled[i] == w) return &ops[i];
    return nullptr;
  }

  static const Op* pending_op(const Frame& f, std::uint32_t w) {
    return pending_op_of(f.enabled, f.ops, w);
  }

  /// Would choosing `w` in frame `f` exceed the preemption budget? A
  /// switch away from a still-enabled previous worker costs one.
  bool exceeds_bound(const Frame& f, std::uint32_t w) const {
    if (opts_.max_preemptions < 0) return false;
    if (!f.prev_enabled || w == f.prev) return false;
    return f.preemptions >=
           static_cast<std::uint32_t>(opts_.max_preemptions);
  }

  void record_violation(Result& res, const Violation& v,
                        const std::vector<std::uint32_t>& schedule) {
    if (v.kind == "deadlock") res.deadlock_free = false;
    else if (v.kind == "lost-wakeup") res.lost_wakeup_free = false;
    else if (v.kind == "refinement") res.refines_stf = false;
    else res.in_order = false;
    res.violation_kind = v.kind;
    res.violation = v.message;
    res.witness = schedule;
  }

  /// Standard stateless-DFS backtracking: deepest frame with an unexplored
  /// backtrack choice wins; the abandoned choice joins its sleep set.
  bool backtrack() {
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      std::uint32_t next = 0;
      bool found = false;
      for (std::uint32_t c : f.backtrack) {
        if (contains(f.explored, c)) continue;
        if (opts_.dpor && contains(f.sleep, c)) continue;
        next = c;
        found = true;
        break;
      }
      if (found) {
        if (opts_.dpor && !contains(f.sleep, f.chosen))
          f.sleep.push_back(f.chosen);
        f.chosen = next;
        f.explored.push_back(next);
        return true;
      }
      stack_.pop_back();
      clock_at_.resize(stack_.size());
    }
    return false;
  }

  const stf::TaskFlow& flow_;
  const rt::Mapping& mapping_;
  Options opts_;
  std::uint32_t n_threads_ = 0;
  CheckPlan plan_;
  stf::FlowImage image_;                  ///< kRioPruned: the plan's source
  std::optional<rt::PrunedPlan> pruned_;  ///< kRioPruned: per-worker slices
  std::vector<Frame> stack_;
  std::vector<std::uint64_t> clock_at_;  ///< own-clock value per step
  bool crash_mode_ = false;              ///< recovery phase 1
  stf::TaskId crash_task_ = 0;
  std::set<std::uint64_t>* frontiers_ = nullptr;
};

}  // namespace

Result verify(const stf::TaskFlow& flow, const rt::Mapping& mapping,
              const Options& opts) {
  RIO_ASSERT_MSG(flow.num_tasks() <= 64,
                 "mc::impl handles flows of at most 64 tasks");
  RIO_ASSERT_MSG(opts.workers >= 1 && opts.workers <= 4,
                 "mc::impl handles 1..4 virtual workers");
  if (!opts.recover) {
    Explorer ex(flow, mapping, opts);
    return ex.explore();
  }

  // Recovery verification — the two-phase model of engine::run_supervised.
  RIO_ASSERT_MSG(opts.workers >= 2,
                 "recovery verification needs >= 2 workers (one dies)");
  RIO_ASSERT_MSG(opts.crash_task < flow.num_tasks(),
                 "crash_task must name a task of the flow");
  support::Stopwatch sw;

  // Phase 1: crash exploration. The worker executing crash_task dies right
  // after the body; refinement / window / lost-wakeup checks stay armed,
  // and every reachable completion frontier is collected.
  Options o1 = opts;
  o1.recover = false;
  Explorer ex1(flow, mapping, o1);
  std::set<std::uint64_t> frontiers;
  ex1.set_crash(static_cast<stf::TaskId>(opts.crash_task), &frontiers);
  Result r = ex1.explore();
  r.frontiers = frontiers.size();
  if (!r.ok()) {
    r.seconds = sw.elapsed_s();
    return r;
  }

  // Phase 2: the resumed configuration — workers-1 threads under the
  // eviction rewrite. The real resume walks completed tasks through the
  // full acquire/terminate protocol (only bodies are skipped), so one
  // exhaustive exploration of this configuration covers the resumed run
  // for EVERY frontier phase 1 collected: the protocol state machine is
  // frontier-independent, only which bodies re-execute differs, and the
  // exact CompletionBoard bitmap makes that exactly-once by construction.
  Options o2 = opts;
  o2.recover = false;
  o2.workers = opts.workers - 1;
  rt::Mapping evicted;
  const rt::Mapping* m2 = &mapping;
  if (opts.engine != EngineKind::kCoor) {
    const stf::WorkerId dead =
        mapping(static_cast<stf::TaskId>(opts.crash_task));
    evicted = rt::mapping::evict(mapping, dead, opts.workers);
    m2 = &evicted;
  }
  Explorer ex2(flow, *m2, o2);
  const Result r2 = ex2.explore();
  r.explored += r2.explored;
  r.pruned += r2.pruned;
  r.steps += r2.steps;
  r.truncated |= r2.truncated;
  if (!r2.ok()) {
    r.deadlock_free = r2.deadlock_free;
    r.lost_wakeup_free = r2.lost_wakeup_free;
    r.refines_stf = r2.refines_stf;
    r.in_order = r2.in_order;
    r.violation = "resumed configuration (" +
                  std::to_string(o2.workers) + " workers, evicted): " +
                  r2.violation;
    r.violation_kind = r2.violation_kind;
    r.witness = r2.witness;
  }
  r.seconds = sw.elapsed_s();
  return r;
}

Result replay(const stf::TaskFlow& flow, const rt::Mapping& mapping,
              const Options& opts,
              const std::vector<std::uint32_t>& schedule) {
  RIO_ASSERT_MSG(flow.num_tasks() <= 64,
                 "mc::impl handles flows of at most 64 tasks");
  Explorer ex(flow, mapping, opts);
  return ex.replay(schedule);
}

}  // namespace rio::mc::impl
