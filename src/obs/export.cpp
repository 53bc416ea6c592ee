#include "obs/export.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace rio::obs {
namespace {

using support::json_double;
using support::json_quote;

/// Timestamp scale for the trace: Chrome's ts/dur unit is microseconds.
/// Nanosecond clocks divide by 1000; tick clocks map one tick to one
/// microsecond so virtual schedules stay readable at integer zoom levels.
double ts_scale(ClockUnit u) {
  return u == ClockUnit::kNanoseconds ? 1e-3 : 1.0;
}

std::string ts_str(std::uint64_t raw, std::uint64_t base, double scale) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(raw - base) * scale);
  return {buf};
}

/// Emits a derived counter track: +1 at each span begin, -1 at each end,
/// running value as Chrome "C" events.
void write_counter_track(std::ostream& os, const std::vector<Event>& events,
                         bool (*want)(Phase), const char* name,
                         const char* key, std::uint64_t base, double scale,
                         bool& first) {
  std::vector<std::pair<std::uint64_t, int>> edges;
  for (const Event& ev : events) {
    if (!want(ev.phase) || ev.begin == ev.end) continue;
    edges.emplace_back(ev.begin, +1);
    edges.emplace_back(ev.end, -1);
  }
  std::sort(edges.begin(), edges.end());
  long value = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    value += edges[i].second;
    // Coalesce simultaneous edges into one sample.
    if (i + 1 < edges.size() && edges[i + 1].first == edges[i].first) continue;
    os << (first ? "" : ",\n") << "  {\"name\": " << json_quote(name)
       << ", \"ph\": \"C\", \"pid\": 0, \"ts\": "
       << ts_str(edges[i].first, base, scale) << ", \"args\": {\""
       << key << "\": " << value << "}}";
    first = false;
  }
}

void write_phase_map(std::ostream& os,
                     const std::uint64_t (&phases)[kNumSpanPhases]) {
  os << "{";
  for (std::size_t i = 0; i < kNumSpanPhases; ++i)
    os << (i ? ", " : "") << json_quote(to_string(static_cast<Phase>(i)))
       << ": " << phases[i];
  os << "}";
}

void write_buckets(std::ostream& os, const support::TimeBuckets& b) {
  os << "{\"task_ns\": " << b.task_ns << ", \"idle_ns\": " << b.idle_ns
     << ", \"runtime_ns\": " << b.runtime_ns << "}";
}

void write_counter_map(std::ostream& os,
                       const std::array<std::uint64_t, kNumCounters>& v) {
  os << "{";
  for (std::size_t i = 0; i < kNumCounters; ++i)
    os << (i ? ", " : "")
       << json_quote(counter_name(static_cast<Counter>(i))) << ": " << v[i];
  os << "}";
}

}  // namespace

void write_perfetto_trace(
    const Hub& hub, std::ostream& os,
    const std::function<std::string(std::uint64_t task)>& task_name) {
  const std::vector<Event> events = hub.drain_events();
  const double scale = ts_scale(hub.clock_unit());
  std::uint64_t base = ~0ull;
  for (const Event& ev : events) base = std::min(base, ev.begin);
  if (events.empty()) base = 0;

  os << "[\n";
  bool first = true;
  os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": \"rioflow\"}}";
  first = false;
  for (std::size_t w = 0; w < hub.num_workers(); ++w)
    os << ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
       << "\"tid\": " << w << ", \"args\": {\"name\": \"worker " << w
       << "\"}}";

  for (const Event& ev : events) {
    os << ",\n  {\"name\": "
       << json_quote(task_name && ev.phase == Phase::kBody
                         ? task_name(ev.task)
                         : to_string(ev.phase))
       << ", \"cat\": \"obs\", \"pid\": 0, \"tid\": " << ev.worker;
    if (ev.begin == ev.end) {
      os << ", \"ph\": \"i\", \"s\": \"t\", \"ts\": "
         << ts_str(ev.begin, base, scale);
    } else {
      os << ", \"ph\": \"X\", \"ts\": " << ts_str(ev.begin, base, scale)
         << ", \"dur\": " << ts_str(ev.end, ev.begin, scale);
    }
    if (ev.task != kNoTask) {
      os << ", \"args\": {\"task\": " << ev.task;
      if (ev.phase == Phase::kAcquireWait && ev.cause != kNoCause) {
        if (cause_data(ev.cause) != kNoCauseData)
          os << ", \"data\": " << cause_data(ev.cause);
        if (cause_producer(ev.cause) != kNoTask)
          os << ", \"producer\": " << cause_producer(ev.cause);
      }
      os << "}";
    }
    os << "}";
  }

  // Flow events: producer release -> consumer acquire_wait, one "s"/"f"
  // pair per attributed wait span, anchored mid-slice so Perfetto binds
  // them to the enclosing slices on both tracks.
  {
    struct Anchor {
      std::uint32_t worker = 0;
      std::uint64_t mid = 0;
      bool release = false;
      bool set = false;
    };
    std::map<std::uint64_t, Anchor> anchors;  // task -> producer-side slice
    for (const Event& ev : events) {
      if (ev.task == kNoTask || ev.begin == ev.end) continue;
      if (ev.phase != Phase::kRelease && ev.phase != Phase::kBody) continue;
      Anchor& a = anchors[ev.task];
      // Prefer the release slice (the publication); keep the latest so a
      // retried/replayed task anchors at its final attempt.
      if (a.set && a.release && ev.phase != Phase::kRelease) continue;
      a.worker = ev.worker;
      a.mid = ev.begin + (ev.end - ev.begin) / 2;
      a.release = ev.phase == Phase::kRelease;
      a.set = true;
    }
    std::uint64_t flow_id = 0;
    for (const Event& ev : events) {
      if (ev.phase != Phase::kAcquireWait || ev.begin == ev.end) continue;
      const std::uint64_t producer = cause_producer(ev.cause);
      if (producer == kNoTask) continue;
      const auto it = anchors.find(producer);
      if (it == anchors.end()) continue;
      os << ",\n  {\"name\": \"dep\", \"cat\": \"obs\", \"ph\": \"s\", "
         << "\"id\": " << flow_id << ", \"pid\": 0, \"tid\": "
         << it->second.worker << ", \"ts\": "
         << ts_str(it->second.mid, base, scale) << "}";
      os << ",\n  {\"name\": \"dep\", \"cat\": \"obs\", \"ph\": \"f\", "
         << "\"bp\": \"e\", \"id\": " << flow_id << ", \"pid\": 0, \"tid\": "
         << ev.worker << ", \"ts\": "
         << ts_str(ev.begin + (ev.end - ev.begin) / 2, base, scale) << "}";
      ++flow_id;
    }
  }

  write_counter_track(
      os, events, [](Phase p) { return p == Phase::kBody; }, "executing tasks",
      "executing", base, scale, first);
  write_counter_track(
      os, events,
      [](Phase p) { return p == Phase::kAcquireWait || p == Phase::kSteal; },
      "waiting workers", "waiting", base, scale, first);

  os << "\n]\n";
}

void write_obs_json(const Hub& hub, const support::RunStats& stats,
                    const ObsJsonMeta& meta, std::ostream& os) {
  const CounterSnapshot counters = hub.counter_snapshot();
  const support::TimeBuckets cum = stats.cumulative();
  const std::size_t nw = hub.num_workers();

  std::uint64_t phase_totals[kNumSpanPhases] = {};
  for (std::size_t w = 0; w < nw; ++w)
    for (std::size_t i = 0; i < kNumSpanPhases; ++i)
      phase_totals[i] += hub.phase_totals(w)[i];

  os << "{\n"
     << "  \"schema\": \"rio.obs.v1\",\n"
     << "  \"engine\": " << json_quote(meta.engine) << ",\n"
     << "  \"workload\": " << json_quote(meta.workload) << ",\n"
     << "  \"clock\": " << json_quote(to_string(hub.clock_unit())) << ",\n"
     << "  \"wall_ns\": " << stats.wall_ns << ",\n"
     << "  \"workers\": " << nw << ",\n"
     << "  \"totals\": {\n"
     << "    \"phases\": ";
  write_phase_map(os, phase_totals);
  os << ",\n    \"buckets\": ";
  write_buckets(os, cum);
  os << ",\n    \"counters\": ";
  write_counter_map(os, counters.totals);
  os << "\n  },\n"
     << "  \"decompose\": {\"e_p\": " << json_double(meta.e_p)
     << ", \"e_r\": " << json_double(meta.e_r)
     << ", \"product\": " << json_double(meta.e_p * meta.e_r) << "},\n"
     << "  \"per_worker\": [\n";
  for (std::size_t w = 0; w < nw; ++w) {
    std::uint64_t phases[kNumSpanPhases] = {};
    for (std::size_t i = 0; i < kNumSpanPhases; ++i)
      phases[i] = hub.phase_totals(w)[i];
    os << "    {\"worker\": " << w << ", \"phases\": ";
    write_phase_map(os, phases);
    if (w < stats.workers.size()) {
      os << ", \"buckets\": ";
      write_buckets(os, stats.workers[w].buckets);
    }
    if (w < counters.workers.size()) {
      os << ", \"counters\": ";
      write_counter_map(os, counters.workers[w]);
    }
    os << "}" << (w + 1 < nw ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"recorder\": {\"enabled\": "
     << (hub.recorder_enabled() ? "true" : "false")
     << ", \"capacity\": " << hub.ring_capacity()
     << ", \"sample\": " << hub.sample_stride()
     << ", \"pushed\": " << hub.pushed()
     << ", \"recorded\": " << hub.recorded()
     << ", \"dropped\": " << hub.dropped() << "}\n"
     << "}\n";
}

}  // namespace rio::obs
