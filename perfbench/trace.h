#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Bench-side span recorder. Spans wrap the benchmark's own calls into each
// layer of the system (serve, core, rt, partition, graph, apps) and the
// load generator's requests; nothing inside the program is instrumented.
// Spans are kept in memory and written once, at exit, as Chrome
// trace-event JSON (chrome://tracing, Perfetto). Recording is off unless
// the run was started with --trace 1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: root
  uint64_t request = 0;  // 0: not part of a request
  uint32_t tid = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Self time of `span`: its duration minus the part of its interval that
/// its children cover (children clipped to the span, overlaps counted
/// once — concurrent children do not make self time negative).
inline int64_t SelfNs(const Span& span, const std::vector<const Span*>& kids) {
  std::vector<std::pair<int64_t, int64_t>> iv;
  iv.reserve(kids.size());
  for (const Span* k : kids) {
    const int64_t lo = std::max(k->start_ns, span.start_ns);
    const int64_t hi = std::min(k->end_ns, span.end_ns);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = -1;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (!open || lo > cur_hi) {
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) covered += cur_hi - cur_lo;
  return (span.end_ns - span.start_ns) - covered;
}

/// Seconds of self time per layer, summed over every span of the layer.
inline std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::map<uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  static const std::vector<const Span*> kNone;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    out[s.layer] += SelfNs(s, it == children.end() ? kNone : it->second) * 1e-9;
  }
  return out;
}

class SpanRecorder {
 public:
  static SpanRecorder& Global() {
    static SpanRecorder recorder;
    return recorder;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes every recorded span as a complete ("X") trace event. Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::vector<Span> all = spans();
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t t0 = all.empty() ? 0 : all.front().start_ns;
    for (const Span& s : all) t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"request\":%llu}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                   (s.start_ns - t0) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                   s.tid, s.id, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

namespace internal {
inline thread_local uint32_t tl_parent = 0;
inline thread_local uint64_t tl_request = 0;
inline uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t mine = next.fetch_add(1);
  return mine;
}
}  // namespace internal

/// RAII span around one call into a layer. Nests through a thread-local
/// parent, so spans opened inside another become its children.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, std::string name) {
    SpanRecorder& rec = SpanRecorder::Global();
    if (!rec.enabled()) return;
    active_ = true;
    span_.layer = layer;
    span_.name = std::move(name);
    span_.id = rec.NextId();
    span_.parent = internal::tl_parent;
    span_.request = internal::tl_request;
    span_.tid = internal::ThreadNumber();
    internal::tl_parent = span_.id;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNs();
    internal::tl_parent = span_.parent;
    SpanRecorder::Global().Add(std::move(span_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Tags every span opened on this thread while alive with one request id.
class RequestScope {
 public:
  explicit RequestScope(uint64_t request) : saved_(internal::tl_request) {
    internal::tl_request = request;
  }
  ~RequestScope() { internal::tl_request = saved_; }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
