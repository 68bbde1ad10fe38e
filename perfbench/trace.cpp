#include "trace.h"

#include <cstdio>
#include <fstream>
#include <string_view>

namespace perfbench {

SpanSink::SpanSink(Tracer& tracer, std::uint32_t thread)
    : tracer_(tracer), thread_(thread) {
  records_.reserve(1024);
}

void SpanSink::begin(const char* name, std::uint64_t op) {
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(
      Open{name, tracer_.next_id(), parent, op, SteadyClock::now(), 0.0});
}

void SpanSink::end() {
  const SteadyClock::time_point stop = SteadyClock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const double duration =
      std::chrono::duration<double, std::micro>(stop - open.start).count();
  // Spans on one thread nest strictly, so a child's whole duration lies
  // inside its parent: self time is the duration minus the children's sum.
  if (!stack_.empty()) stack_.back().child_us += duration;

  auto it = totals_.find(std::string_view(open.name));
  if (it == totals_.end()) {
    it = totals_.emplace(open.name, SpanTotals{}).first;
  }
  it->second.duration_us.push_back(duration);
  it->second.self_us.push_back(duration - open.child_us);

  if (records_.size() < Tracer::kMaxRecordsPerSink) {
    records_.push_back(SpanRecord{open.name, open.id, open.parent, thread_,
                                  open.op,
                                  tracer_.micros_since_start(open.start),
                                  tracer_.micros_since_start(stop)});
  } else {
    ++dropped_;
  }
}

Tracer::Tracer() : start_(SteadyClock::now()) {}

SpanSink& Tracer::new_sink() {
  const std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(std::make_unique<SpanSink>(
      *this, static_cast<std::uint32_t>(sinks_.size())));
  return *sinks_.back();
}

std::uint32_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

double Tracer::micros_since_start(SteadyClock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - start_).count();
}

SpanTotals Tracer::totals(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanTotals merged;
  for (const auto& sink : sinks_) {
    const auto it = sink->totals().find(name);
    if (it == sink->totals().end()) continue;
    merged.duration_us.insert(merged.duration_us.end(),
                              it->second.duration_us.begin(),
                              it->second.duration_us.end());
    merged.self_us.insert(merged.self_us.end(), it->second.self_us.begin(),
                          it->second.self_us.end());
  }
  return merged;
}

void Tracer::append_events(const std::string& process, std::string& out,
                           bool& first) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  char line[512];
  for (const auto& sink : sinks_) {
    for (const SpanRecord& r : sink->records()) {
      std::snprintf(line, sizeof line,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":\"%s\",\"tid\":%u,"
                    "\"args\":{\"id\":%u,\"parent\":%u,\"op\":%llu}}",
                    first ? "" : ",\n", r.name, process.c_str(), r.start_us,
                    r.end_us - r.start_us, process.c_str(), r.thread, r.id,
                    r.parent, static_cast<unsigned long long>(r.op));
      out += line;
      first = false;
    }
  }
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& sink : sinks_) total += sink->dropped();
  return total;
}

bool write_chrome_trace(const std::string& path, const std::string& events) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[\n" << events << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
