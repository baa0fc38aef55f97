#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {

namespace {

constexpr int kHostPid = 1;
constexpr int kSimPid = 2;

std::atomic<std::uint64_t> g_next_span{1};
std::atomic<int> g_next_tid{1};

int this_tid() {
  thread_local const int tid = g_next_tid.fetch_add(1);
  return tid;
}

// Open spans of this thread, innermost last: the parent of a new span.
std::vector<std::uint64_t>& open_spans() {
  thread_local std::vector<std::uint64_t> stack;
  return stack;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, const char* cat,
                   bool on, std::int64_t round)
    : tracer_(tracer.enabled_ && on ? &tracer : nullptr),
      name_(name),
      cat_(cat),
      round_(round) {
  if (tracer_ == nullptr) return;
  auto& stack = open_spans();
  parent_ = stack.empty() ? 0 : stack.back();
  id_ = g_next_span.fetch_add(1);
  stack.push_back(id_);
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const auto end = Clock::now();
  open_spans().pop_back();
  const double ts = tracer_->since_origin_us(start_);
  tracer_->push(Event{name_, cat_, ts, tracer_->since_origin_us(end) - ts,
                      kHostPid, this_tid(), id_, parent_, round_});
}

void Tracer::add_sim(const char* name, double start_s, double dur_s,
                     std::int64_t round) {
  if (!enabled_) return;
  push(Event{name, "sim", start_s * 1e6, dur_s * 1e6, kSimPid, 1,
             g_next_span.fetch_add(1), 0, round});
}

void Tracer::push(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::size_t Tracer::host_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& e : events_) n += e.pid == kHostPid ? 1 : 0;
  return n;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  std::set<int> host_tids;
  for (const auto& e : events_) {
    if (e.pid == kHostPid) host_tids.insert(e.tid);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"host time"}})"
      << ",\n";
  out << R"json({"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"simulated time (LatencyBreakdown, stacked per round)"}})json";
  for (const int tid : host_tids) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << (tid == 1 ? "main" : "worker ")
        << (tid == 1 ? "" : std::to_string(tid)) << "\"}}";
  }
  out << ",\n"
      << R"({"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"rounds"}})";
  char buf[128];
  for (const auto& e : events_) {
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", e.ts_us,
                  e.dur_us);
    out << ",\n{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
        << "\",\"ph\":\"X\"," << buf << ",\"pid\":" << e.pid
        << ",\"tid\":" << e.tid << ",\"args\":{\"id\":" << e.id
        << ",\"parent\":" << e.parent << ",\"round\":" << e.round << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
