// Benchmark-side spans for the traced run.
//
// Each public call the benchmark makes into a layer is wrapped in a
// ScopedSpan: name, start, end, parent span and op id. Spans are recorded
// per load-generator thread (one SpanSink each, so recording takes no lock)
// and kept in memory; the Chrome trace-event file is written at exit.
// Self time is a span's duration minus the time its child spans cover.
// With a null sink a ScopedSpan does nothing, which is how untraced runs
// keep timings free of tracing cost.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = nullptr;  // string literal: outlives the tracer
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint32_t thread = 0;
  std::uint64_t op = 0;
  double start_us = 0;
  double end_us = 0;
};

/// Durations of every closed span of one name, in microseconds.
struct SpanTotals {
  std::vector<double> duration_us;
  std::vector<double> self_us;
};

class Tracer;

/// One thread's span recorder. Not thread-safe: each generator thread owns
/// its own sink.
class SpanSink {
 public:
  SpanSink(Tracer& tracer, std::uint32_t thread);

  void begin(const char* name, std::uint64_t op);
  void end();

  const std::map<std::string, SpanTotals, std::less<>>& totals() const {
    return totals_;
  }
  const std::vector<SpanRecord>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  /// A span begun and not yet ended.
  struct Open {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t op;
    SteadyClock::time_point start;
    double child_us;  // summed durations of its closed children
  };

  Tracer& tracer_;
  std::uint32_t thread_;
  std::vector<Open> stack_;
  std::map<std::string, SpanTotals, std::less<>> totals_;
  std::vector<SpanRecord> records_;
  std::uint64_t dropped_ = 0;
};

class Tracer {
 public:
  /// Span records kept for the trace file per sink; aggregates (totals)
  /// cover every span regardless.
  static constexpr std::size_t kMaxRecordsPerSink = 20'000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A new sink for one generator thread; owned by the tracer.
  SpanSink& new_sink();

  std::uint32_t next_id();
  double micros_since_start(SteadyClock::time_point t) const;

  /// Merge every sink's totals for `name` (empty if never recorded).
  SpanTotals totals(const std::string& name) const;

  /// Append the recorded spans, tagged with `process` (one Chrome "pid"
  /// per workload), to the trace-event list.
  void append_events(const std::string& process, std::string& out,
                     bool& first) const;
  std::uint64_t dropped() const;

 private:
  SteadyClock::time_point start_;
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mutex_;  // guards sinks_ (creation and merging only)
  std::vector<std::unique_ptr<SpanSink>> sinks_;
};

/// RAII span; a no-op when `sink` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, const char* name, std::uint64_t op)
      : sink_(sink) {
    if (sink_) sink_->begin(name, op);
  }
  ~ScopedSpan() {
    if (sink_) sink_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSink* sink_;
};

/// Write `{"traceEvents":[...]}` to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::string& events);

}  // namespace perfbench
