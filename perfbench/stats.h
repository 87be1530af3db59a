#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles with the sample count behind
// them, ratios that keep their base, and answer digests. Header-only so the
// unit tests (perfbench_test.cc) exercise exactly what the runs use.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it. Rank is ceil(p/100 * n), 1-based. Returns 0 for
/// an empty sample set.
inline size_t PercentileRank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps exact products such as 0.9 * 100 from rounding up
  // to the next rank through floating-point error.
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = PercentileRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// Samples strictly beyond the p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - PercentileRank(n, p);
}

/// The highest of the usual reporting percentiles that still has at least
/// `min_beyond` samples beyond it — a tail read off fewer samples is one
/// outlier, not a percentile. Falls back to the median.
inline double ReportablePercentile(size_t n, size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 50.0;
}

/// A value (a latency, say) stamped with when it completed, in seconds on
/// the steady clock.
struct TimedSample {
  double at_s = 0;
  double value = 0;
};

/// A timed slice of a phase, with the share of the machine's CPU time the
/// hypervisor stole while it ran (0 when unmeasured).
struct Window {
  double begin_s = 0;
  double end_s = 0;
  double steal = 0;
};

/// The windows a quiet-window statistic keeps, in time order: every window
/// whose steal share is at most `calm`, or, when those are fewer, the
/// `keep` share of the windows (at least one) with the least steal,
/// earlier first on a tie.
inline std::vector<size_t> QuietestWindows(const std::vector<Window>& windows,
                                           double keep, double calm) {
  std::vector<size_t> order(windows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return windows[a].steal < windows[b].steal;
  });
  size_t n = static_cast<size_t>(std::ceil(keep * windows.size() - 1e-9));
  while (n < order.size() && windows[order[n]].steal <= calm) ++n;
  order.resize(std::min(order.size(), std::max<size_t>(n, 1)));
  std::sort(order.begin(), order.end());
  return order;
}

/// The samples of the kept windows, with their total length.
struct Pooled {
  std::vector<double> values;
  double seconds = 0;
  double worst_steal = 0;
  size_t windows = 0;
};

/// Pools the samples of QuietestWindows(windows, keep, calm); `windows`
/// are sorted by begin_s. A sample belongs to the last window that began at or before
/// it completed (the first, if it completed before any began). On a
/// shared machine other guests' load arrives in bursts of seconds, and a
/// stolen CPU stalls every superstep barrier waiting on it, so a latency
/// taken over all windows follows the neighbours more than the system.
/// The quiet windows are chosen by the machine's own steal counter, never
/// by the figures themselves, so a slower program still reads slower.
inline Pooled QuietPool(const std::vector<TimedSample>& samples,
                        const std::vector<Window>& windows, double keep,
                        double calm) {
  Pooled out;
  if (windows.empty()) return out;
  std::vector<std::vector<double>> bins(windows.size());
  for (const TimedSample& s : samples) {
    auto it = std::upper_bound(windows.begin(), windows.end(), s.at_s,
                               [](double t, const Window& w) { return t < w.begin_s; });
    const size_t k = it == windows.begin() ? 0 : (it - windows.begin()) - 1;
    bins[k].push_back(s.value);
  }
  for (size_t k : QuietestWindows(windows, keep, calm)) {
    out.values.insert(out.values.end(), bins[k].begin(), bins[k].end());
    out.seconds += windows[k].end_s - windows[k].begin_s;
    out.worst_steal = std::max(out.worst_steal, windows[k].steal);
    ++out.windows;
  }
  return out;
}

/// A ratio metric that keeps its base: the value alone hides whether it
/// was 1/2 or 500/1000.
struct Ratio {
  uint64_t num = 0;
  uint64_t den = 0;

  double value() const {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }
  std::string base() const {
    return std::to_string(num) + "/" + std::to_string(den);
  }
};

/// FNV-1a over raw bytes. Answers are digested as they arrive and compared
/// with the oracle's digest afterwards, so the timed phases never hold a
/// copy of every answer.
inline uint64_t Digest(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
uint64_t DigestOf(const std::vector<T>& v) {
  return Digest(v.data(), v.size() * sizeof(T));
}

/// Largest absolute elementwise difference; infinity on a size mismatch.
inline double MaxAbsDiff(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
