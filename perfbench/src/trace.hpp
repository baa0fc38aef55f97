// In-memory span recorder for the traced benchmark run, written out once at
// the end as Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
//
// Two lanes: pid 1 holds host spans (one track per recording thread), pid 2
// holds simulated time rebuilt from each round's LatencyBreakdown. Spans
// record their parent (the innermost open span on the same thread) and the
// round they belong to. A disabled tracer records nothing and costs one
// branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII host span; `on` lets a caller leave single rounds untraced.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, const char* cat, bool on,
         std::int64_t round);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  ///< null when not recording
    const char* name_;
    const char* cat_;
    std::int64_t round_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
  };

  [[nodiscard]] Span span(const char* name, const char* cat, bool on = true,
                          std::int64_t round = -1) {
    return Span(*this, name, cat, on, round);
  }

  /// One simulated-time span on the simulated lane (seconds).
  void add_sim(const char* name, double start_s, double dur_s,
               std::int64_t round);

  /// Write every recorded span; returns false when the file cannot be
  /// written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

  [[nodiscard]] std::size_t host_spans() const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    double ts_us;
    double dur_us;
    int pid;
    int tid;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t round;
  };

  void push(const Event& event);
  [[nodiscard]] double since_origin_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;  ///< guarded by mutex_
};

}  // namespace perfbench
