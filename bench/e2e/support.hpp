#pragma once
/// \file support.hpp
/// \brief Measurement plumbing shared by the end-to-end benchmark's
/// workloads: sample sets, windowed phase statistics, the metric sink and
/// run result, the bench's own trace spans (Chrome trace-event export), a
/// small JSON reader for response checks, registry / Prometheus scrape
/// deltas, and CPU-clock and /proc readers.
///
/// Everything here sits outside src/: the benchmark only reads the
/// program through its public surfaces.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "util/types.hpp"

namespace bench {

using dharma::i64;
using dharma::u16;
using dharma::u32;
using dharma::u64;
using dharma::u8;
using dharma::usize;
using Clock = std::chrono::steady_clock;

inline i64 nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr i64 kNsPerMs = 1'000'000;
constexpr i64 kNsPerS = 1'000'000'000;

/// A set of observations with order statistics (linear interpolation
/// between closest ranks, as numpy's default percentile).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  usize size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }

  double quantile(double q) const;
  double mean() const;
  double sum() const;

 private:
  std::vector<double> v_;
};

/// Window length of every measured phase.
constexpr i64 kWindowNs = 500'000'000;

/// A measured phase cut into fixed windows of kWindowNs from its start.
/// Each finished op lands in the window of its completion time; every
/// end-to-end timing is computed per window and reported as its median
/// over the windows. A host stall shorter than half the phase then moves a
/// few windows, not the run's number, while a change that slows every
/// window still shows.
class Windows {
 public:
  explicit Windows(i64 startNs = 0) : start_(startNs) {}

  /// One finished op: its latency, and whether it counts toward
  /// throughput (ok and within the workload's latency limit).
  void add(i64 doneNs, double latency, bool good);
  /// Called as the phase runs: reads the CPU clock of process \p pid (0 =
  /// this process) when \p tNs is the first call at or after a window
  /// boundary.
  void readCpu(i64 tNs, pid_t pid);
  /// Ends the phase at \p endNs: the trailing partial window is dropped,
  /// or, when the phase is shorter than one window, becomes the only one
  /// (its closing CPU reading taken now).
  void close(i64 endNs, pid_t pid);
  /// Adds the ops of \p o, a phase with the same start, to these windows.
  void merge(const Windows& o);

  /// Median over windows of good ops per second.
  double rate() const;
  /// Median over windows of the per-window \p q quantile of latency.
  double quantile(double q) const;
  /// Median over windows of CPU milliseconds per op (windows whose two
  /// boundary readings exist).
  double cpuMsPerOp() const;

 private:
  struct Window {
    Samples lat;
    u64 good = 0;
  };
  i64 start_;
  i64 width_ = kWindowNs;
  std::vector<Window> win_;
  std::vector<double> cpu_;  ///< reading at boundary i; < 0 while unread
};

/// Ordered (name, value, unit) rows; the unit travels with every value.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
};

/// Outcome of one workload run: correctness verdict, op counts, and both
/// metric sets (end-to-end from untraced runs, per-layer from traced ones).
struct RunResult {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> problems;  ///< first few failed checks
  MetricSet e2e;
  MetricSet layers;

  /// Records a failed correctness check (kept: the first 20 messages).
  void fail(const std::string& what);
};

/// Bench-owned trace spans: name, start, end, the span that caused it, and
/// the request id shared by every span of one request. Each thread appends
/// to its own lane (no locking); lanes are merged at export.
struct Span {
  const char* name = "";
  u64 id = 0;
  u64 parent = 0;
  u64 req = 0;
  i64 startNs = 0;
  i64 endNs = 0;
};

class SpanLog {
 public:
  static constexpr usize kLanes = 8;
  static constexpr usize kMaxPerLane = 60'000;

  bool enabled = false;

  u64 newId() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends a finished span on \p lane; returns its id (0 when disabled).
  u64 add(usize lane, const char* name, u64 parent, u64 req, i64 startNs,
          i64 endNs);

  /// Writes Chrome trace-event JSON ("X" events; opens in Perfetto).
  bool writeChrome(const std::string& path) const;

 private:
  std::atomic<u64> next_{1};
  std::array<std::vector<Span>, kLanes> lanes_;
};

/// Minimal JSON DOM, enough to check response shapes.
struct Json {
  enum class Type : u8 { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* get(std::string_view key) const;
  bool isNum() const { return type == Type::kNum; }
  bool isStr() const { return type == Type::kStr; }
  bool isBool() const { return type == Type::kBool; }
  bool isArr() const { return type == Type::kArr; }
  bool isObj() const { return type == Type::kObj; }
};

std::optional<Json> parseJson(std::string_view text);

/// Counter/gauge values and histograms keyed by series id
/// (`name{k="v",...}`, or the bare name) — the same ids the registry uses,
/// whether read in process or parsed from a `GET /metrics` scrape.
struct Scrape {
  std::map<std::string, double> scalars;
  std::map<std::string, dharma::obs::HistogramSnapshot> hists;

  static Scrape fromRegistry(const dharma::obs::MetricsRegistry& reg);
  static Scrape fromPrometheus(std::string_view text);

  /// after − before, series by series. Histogram maxima of a delta are not
  /// observable, so the upper bound of the highest non-empty bucket stands
  /// in for them.
  static Scrape delta(const Scrape& after, const Scrape& before);

  double scalar(const std::string& id) const;
  /// Merge of every histogram whose id starts with \p prefix.
  dharma::obs::HistogramSnapshot hist(std::string_view prefix) const;
  /// Histograms whose id starts with \p prefix, one per series.
  std::vector<dharma::obs::HistogramSnapshot> histSeries(
      std::string_view prefix) const;
};

double histMean(const dharma::obs::HistogramSnapshot& h);

/// CPU time (user + system, every thread) of process \p pid (0 = this
/// process), in seconds with nanosecond resolution; -1 when unreadable.
double cpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of \p pid (0 = this process), in MB.
double procPeakRssMb(pid_t pid);

/// Time per call of \p fn in ns: median over \p rounds rounds of \p iters
/// calls each.
template <typename F>
double timePerCallNs(usize rounds, usize iters, F&& fn) {
  Samples s;
  for (usize r = 0; r < rounds; ++r) {
    i64 t0 = nowNs();
    for (usize i = 0; i < iters; ++i) fn(i);
    s.add(static_cast<double>(nowNs() - t0) / static_cast<double>(iters));
  }
  return s.quantile(0.5);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace bench
