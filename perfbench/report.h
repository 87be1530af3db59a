#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Metric collection and output. Every metric is printed by name with its
// unit (and, for ratios and percentiles, the base or sample count behind
// it); the last line is one machine-readable result that perfbench/run.py
// narrows to the metrics BENCHMARK.json names for the run's mode.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_[name] = Metric{std::isfinite(value) ? value : 0.0, unit, note};
  }

  double Get(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }

  void SetRatio(const std::string& name, const Ratio& r) {
    Set(name, r.value(), "ratio", "base " + r.base());
  }

  /// Median and p90 of a timed phase cut into windows, as
  /// <prefix>_p50_ms / <prefix>_p90_ms stamped with the sample count: each
  /// percentile is taken over the samples of the quiet windows
  /// (kCalmSteal, stats.h QuietPool).
  void SetLatency(const std::string& prefix,
                  const std::vector<TimedSample>& samples,
                  const std::vector<Window>& windows) {
    const Pooled quiet = QuietPool(samples, windows, kQuietShare, kCalmSteal);
    const size_t n = quiet.values.size();
    const std::string note = QuietNote(quiet, windows) + ", n=" + std::to_string(n);
    Set(prefix + "_p50_ms", Median(quiet.values), "ms", note);
    Set(prefix + "_p90_ms", Percentile(quiet.values, 90), "ms",
        note + ", " + std::to_string(SamplesBeyond(n, 90)) + " beyond");
  }

  /// Completions per second over the quiet windows of a timed phase.
  void SetRate(const std::string& name, const std::vector<TimedSample>& samples,
               const std::vector<Window>& windows, const std::string& what) {
    const Pooled quiet = QuietPool(samples, windows, kQuietShare, kCalmSteal);
    Set(name, quiet.seconds > 0 ? quiet.values.size() / quiet.seconds : 0.0, "1/s",
        what + ", " + QuietNote(quiet, windows) + ", n=" +
            std::to_string(quiet.values.size()));
  }

  /// The median length of the quiet ones among `windows` (repeated
  /// set-ups, say), in seconds.
  void SetQuietMedian(const std::string& name, const std::vector<Window>& windows,
                      const std::string& what) {
    std::vector<double> seconds;
    double worst = 0;
    for (size_t k : QuietestWindows(windows, kQuietShare, kCalmSteal)) {
      seconds.push_back(windows[k].end_s - windows[k].begin_s);
      worst = std::max(worst, windows[k].steal);
    }
    char note[128];
    std::snprintf(note, sizeof(note), "median of the quiet %zu of %zu %s (steal <= %.3f)",
                  seconds.size(), windows.size(), what.c_str(), worst);
    Set(name, Median(seconds), "s", note);
  }

  /// The quiet-window statistics keep every window in which at most
  /// kCalmSteal of the machine's CPU time was stolen, and at least the
  /// quietest kQuietShare of them.
  static constexpr double kQuietShare = 0.25;
  static constexpr double kCalmSteal = 0.01;

  static std::string QuietNote(const Pooled& quiet, const std::vector<Window>& windows) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "quiet %zu of %zu windows (steal <= %.3f)",
                  quiet.windows, windows.size(), quiet.worst_steal);
    return buf;
  }

  /// Operations attempted and failed (errors, refusals, wrong answers).
  void Attempted(uint64_t n = 1) { attempted_ += n; }
  void Failed(const std::string& why) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(why);
  }
  /// A wrong answer or a failed oracle check: counts as a failure and
  /// marks the whole run incorrect.
  void CheckFailed(const std::string& why) {
    correct_ = false;
    Failed(why);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool ok() const { return correct_ && failed_ == 0; }

  void Print() const {
    for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());
    const double frac =
        attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / attempted_;
    std::printf("%-34s %16.6g %-8s base %llu/%llu\n", "fail_frac", frac,
                "ratio", static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    for (const auto& [name, m] : metrics_) {
      std::printf("%-34s %16.6g %-8s %s\n", name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                ok() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
