#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Load generation: seeded open-loop (Poisson) schedules, due-time latency
// and generator lateness, plus the steal monitor and the endpoint memory
// probe.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Seconds on the steady clock, the time base of TimedSample.
inline double ToSeconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// Due times (seconds from the phase start) of a Poisson arrival process
/// at `rate_per_s` over `duration_s`, conditioned on its count: exactly
/// round(rate * duration) arrivals placed as sorted uniform draws. Every
/// seed thus offers the same load and only the arrival pattern varies with
/// it; an unconditioned count alone moves the offered load by about
/// 1/sqrt(count) between seeds. The same seed gives the same schedule.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                           double duration_s) {
  const auto n = static_cast<size_t>(std::llround(
      std::max(0.0, rate_per_s * duration_s)));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> at(0.0, duration_s);
  std::vector<double> due(n);
  for (double& t : due) t = at(rng);
  std::sort(due.begin(), due.end());
  return due;
}

/// Per-request timing of an open loop: latency runs from the due time (so
/// a stall also charges the requests queued behind it), lateness from the
/// due time to the actual send.
struct OpenLoopSample {
  double latency_ms = 0;
  double late_ms = 0;
  double done_s = 0;  // completion, steady-clock seconds
};

/// Issues op(i) for due times taken in order from a shared schedule. Every
/// connection of an open loop runs this on its own thread with the same
/// `next`: a free connection takes the next due request, so a request
/// waits past its due time only while every connection is busy. Requests
/// already late are sent at once, never skipped.
template <typename Op>
std::vector<OpenLoopSample> RunOpenLoop(Clock::time_point start,
                                        const std::vector<double>& due,
                                        std::atomic<size_t>* next, Op&& op) {
  std::vector<OpenLoopSample> out;
  for (size_t i = next->fetch_add(1); i < due.size(); i = next->fetch_add(1)) {
    const auto due_at =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(due_at);
    const auto sent = Clock::now();
    op(i);
    const auto done = Clock::now();
    out.push_back({MsBetween(due_at, done), MsBetween(due_at, sent), ToSeconds(done)});
  }
  return out;
}

/// Aggregate CPU time counters from /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

/// The machine's CPU counters. Steal is time the hypervisor ran other
/// guests while this one was ready to run: the run's own witness of a
/// noisy shared machine.
inline CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTimes t;
  uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Samples the machine's CPU counters on a background thread, so that any
/// interval of the run can be asked afterwards how much of its CPU time
/// the hypervisor stole. main() owns the one instance (a stack object:
/// endpoint processes forked from the run never run its destructor).
class RunMonitor {
 public:
  explicit RunMonitor(std::chrono::milliseconds period = std::chrono::milliseconds(50))
      : period_(period) {
    Sample();
    thread_ = std::thread([this] { Loop(); });
    instance_ = this;
  }
  ~RunMonitor() {
    instance_ = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  RunMonitor(const RunMonitor&) = delete;
  RunMonitor& operator=(const RunMonitor&) = delete;

  /// The running instance, or null outside a run (unit tests).
  static RunMonitor* Get() { return instance_; }

  /// Stamps each window with the steal share of the machine's CPU time,
  /// the counters interpolated linearly between the samples around its
  /// ends.
  void Measure(std::vector<Window>* windows) {
    Sample();
    std::lock_guard<std::mutex> lock(mu_);
    for (Window& w : *windows) {
      const Point a = At(w.begin_s), b = At(w.end_s);
      w.steal = b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0;
    }
  }

 private:
  struct Point {
    double at_s = 0;
    double steal = 0;  // clock ticks
    double total = 0;
  };

  void Sample() {
    const CpuTimes machine = ReadCpuTimes();
    const double at = ToSeconds(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    if (!points_.empty() && at <= points_.back().at_s) return;
    points_.push_back({at, static_cast<double>(machine.steal),
                       static_cast<double>(machine.total)});
  }

  /// The counters at time t, interpolated between the samples around it.
  Point At(double t) const {
    auto it = std::lower_bound(points_.begin(), points_.end(), t,
                               [](const Point& p, double x) { return p.at_s < x; });
    if (it == points_.begin()) return points_.front();
    if (it == points_.end()) return points_.back();
    const Point& hi = *it;
    const Point& lo = *(it - 1);
    const double f = (t - lo.at_s) / (hi.at_s - lo.at_s);
    auto mix = [f](double x, double y) { return x + f * (y - x); };
    return {t, mix(lo.steal, hi.steal), mix(lo.total, hi.total)};
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
      lock.unlock();
      Sample();
      lock.lock();
    }
  }

  static inline RunMonitor* instance_ = nullptr;
  const std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Point> points_;
  std::thread thread_;
};

/// Stamps each window with its steal share when a RunMonitor is running.
inline void MeasureWindows(std::vector<Window>* windows) {
  if (RunMonitor* monitor = RunMonitor::Get()) monitor->Measure(windows);
}

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
inline double VmHwmMiB(int64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
