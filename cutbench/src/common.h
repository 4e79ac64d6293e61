// Shared pieces of the benchmark binary: the clock, the in-memory span
// recorder of the traced pass, percentile helpers and the metric sink that
// prints results.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cutbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-6;
}

// The command-line arguments a workload runs with.
struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Named values with units, printed in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    const auto it = index_.find(name);
    if (it != index_.end()) {
      items_[it->second].value = value;
      return;
    }
    index_[name] = items_.size();
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
  std::map<std::string, std::size_t> index_;
};

// What a workload hands back to main: contract metrics (end-to-end or
// per-layer, by --trace), the longer per-workload detail set, and counts.
struct RunResult {
  MetricSet metrics;
  MetricSet details;
  // Run conditions the workload knows best (pool widths), as JSON values.
  std::vector<std::pair<std::string, std::string>> conditions;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; sorts it.
template <class T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

// The tail quantile: the highest one with at least ten of `samples` beyond
// it, 1 - 10/n, which moves smoothly with the sample count. It is capped at
// p95: deeper tails of a run this short on a shared host are set by host
// preemption rather than the program, and vary run to run by a fifth.
inline double tail_quantile(std::size_t samples) {
  const double q = 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(samples, 1));
  return std::clamp(q, 0.5, 0.95);
}

// Median of a small set of repeated measurements (set-up time).
inline double median(std::vector<double> v) { return percentile(v, 0.5); }

// A run is cut into kSlices equal time slices. Every timing metric is
// computed per slice and reported as the median over slices, so a host
// disturbance confined to one slice does not move it.
inline constexpr int kSlices = 3;

// The slice of an op that started `since_start_ns` into a run measured for
// `budget_ns`; ops started after the budget belong to the last slice.
inline int slice_of(std::int64_t since_start_ns, std::int64_t budget_ns) {
  return static_cast<int>(std::clamp<std::int64_t>(
      since_start_ns * kSlices / std::max<std::int64_t>(budget_ns, 1), 0, kSlices - 1));
}

// One slice's latency summary.
struct SliceTiming {
  double p50 = 0;
  double tail = 0;
  double tail_q = 0;  // the quantile `tail` was read at
  double per_s = 0;   // ops per second, from the first op's start to the last op's end
};

// Where a slice's ops began and ended, for its throughput.
struct SliceSpan {
  std::int64_t first_start = 0;
  std::int64_t last_end = 0;
  std::uint64_t ops = 0;

  void add(std::int64_t start, std::int64_t end) {
    if (ops++ == 0) first_start = start;
    last_end = end;
  }
  [[nodiscard]] double per_s() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(ops) /
                          (static_cast<double>(std::max<std::int64_t>(last_end - first_start, 1)) *
                           1e-9);
  }
};

// Field-wise median over the slices.
inline SliceTiming median_over_slices(const std::array<SliceTiming, kSlices>& s) {
  auto med = [&](double SliceTiming::*field) {
    std::vector<double> v;
    for (const SliceTiming& t : s) v.push_back(t.*field);
    return median(std::move(v));
  };
  return {med(&SliceTiming::p50), med(&SliceTiming::tail), med(&SliceTiming::tail_q),
          med(&SliceTiming::per_s)};
}

// Fixed-capacity latency sample: keeps the first `capacity` values, then a
// uniform subset by reservoir sampling. The storage is touched up front, so
// the process's peak RSS does not grow with throughput.
class LatencySample {
 public:
  LatencySample(std::size_t capacity, std::uint64_t seed)
      : values_(capacity, 0.0F), state_(seed | 1U) {}
  void add(float v) {
    if (count_ < values_.size()) {
      values_[count_] = v;
    } else {
      // xorshift64: cheap, and only picks reservoir slots.
      state_ ^= state_ << 13U;
      state_ ^= state_ >> 7U;
      state_ ^= state_ << 17U;
      const std::uint64_t j = state_ % (count_ + 1);
      if (j < values_.size()) values_[j] = v;
    }
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  // Nearest-rank percentile of the kept values; reorders them.
  double percentile(double q) {
    values_.resize(std::min<std::uint64_t>(count_, values_.size()));
    return cutbench::percentile(values_, q);
  }

 private:
  std::vector<float> values_;
  std::uint64_t count_ = 0;
  std::uint64_t state_;
};

// Total length of the union of [lo, hi) intervals, clipped to [clip_lo,
// clip_hi).
inline std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                             std::int64_t clip_lo, std::int64_t clip_hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, clip_lo);
    hi = std::min(hi, clip_hi);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

// In-memory span recorder for the traced pass. Spans carry a name, start,
// end and parent (-1 for a root); they stay in memory until the run ends.
// Thread-safe: the min-cut recursion invokes backend hooks from pool tasks.
class Trace {
 public:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
  };

  std::int32_t open(const char* name, std::int32_t parent) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, 0, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  // Records an already-timed interval.
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  // Read after every recording thread has joined.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_ while recording
};

class ScopedSpan {
 public:
  ScopedSpan(Trace& t, const char* name, std::int32_t parent)
      : t_(t), id_(t.open(name, parent)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Trace& t_;
  std::int32_t id_;
};

// Span analysis over a finished trace: children lists, and per-root
// aggregates by span name.
class SpanTree {
 public:
  explicit SpanTree(const std::vector<Trace::Span>& spans);

  [[nodiscard]] const std::vector<std::int32_t>& children(std::int32_t id) const {
    return children_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const Trace::Span& span(std::int32_t id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::int64_t duration(std::int32_t id) const {
    return span(id).end - span(id).start;
  }
  // Every descendant of `root` named `name`, depth first.
  [[nodiscard]] std::vector<std::int32_t> descendants(std::int32_t root,
                                                      const std::string& name) const;
  // Union of the intervals of those descendants, clipped to the root.
  [[nodiscard]] std::int64_t busy_ns(std::int32_t root, const std::string& name) const;
  // Sum of their durations.
  [[nodiscard]] std::int64_t sum_ns(std::int32_t root, const std::string& name) const;

 private:
  const std::vector<Trace::Span>& spans_;
  std::vector<std::vector<std::int32_t>> children_;
};

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace cutbench
