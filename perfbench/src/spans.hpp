// In-memory span recording for the traced benchmark run, exported at exit as
// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
//
// One SpanLog per rank thread: spans are appended without locking and carry
// their rank as the trace tid. A span has a process-unique id, the id of the
// span that was open when it started (its parent), and the id of the solve it
// belongs to. Nesting is solve -> iteration -> core.stage.* -> dla.*.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds since the first call in this process (shared by all ranks so
/// the rank tracks of one trace line up).
inline double now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

struct Span {
  std::string name;
  int tid = 0;
  long solve_id = 0;
  long id = 0;
  long parent = 0;  // 0 = root
  double begin_us = 0;
  double end_us = 0;
  double seconds() const { return 1e-6 * (end_us - begin_us); }
};

class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  /// Open a span as a child of the innermost open span.
  void open(std::string name, long solve_id) {
    Span s;
    s.name = std::move(name);
    s.tid = tid_;
    s.solve_id = solve_id;
    s.id = long(tid_ + 1) * 100000000L + long(spans_.size()) + 1;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.begin_us = now_us();
    stack_.push_back(spans_.size());
    spans_.push_back(std::move(s));
  }

  /// Close the innermost open span.
  void close() {
    spans_[stack_.back()].end_us = now_us();
    stack_.pop_back();
  }

  bool idle() const { return stack_.empty(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // indices of the open spans
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, long solve_id) : log_(log) {
    log_.open(std::move(name), solve_id);
  }
  ~ScopedSpan() { log_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

/// Total seconds per span name.
inline std::map<std::string, double> seconds_by_name(const SpanLog& log) {
  std::map<std::string, double> out;
  for (const Span& s : log.spans()) out[s.name] += s.seconds();
  return out;
}

/// Write every span of every log as Chrome trace-event JSON: complete ("X")
/// events in microseconds, one tid per rank, solve id and parent in args.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 0, \"args\": {\"name\": \"chase_perfbench\"}}");
  for (const SpanLog* log : logs) {
    if (log->spans().empty()) continue;
    const int tid = log->spans().front().tid;
    std::fprintf(f,
                 ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"rank %d\"}}",
                 tid, tid);
    for (const Span& s : log->spans()) {
      const auto dot = s.name.find('.');
      const std::string cat =
          dot == std::string::npos ? s.name : s.name.substr(0, dot);
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"solve_id\": %ld, \"span_id\": %ld, "
                   "\"parent\": %ld}}",
                   s.name.c_str(), cat.c_str(), s.tid, s.begin_us,
                   s.end_us - s.begin_us, s.solve_id, s.id, s.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
