// Statistics and tracing helpers of the served-classification benchmark:
// nearest-rank percentiles, ratios that tolerate empty denominators, the
// seeded open-loop arrival schedule, and an in-memory span recorder whose
// self times subtract the part of a span its children cover.
#ifndef SERVEBENCH_BENCH_STATS_H_
#define SERVEBENCH_BENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace servebench {

// Nearest-rank percentile: the ceil(q * n)-th smallest sample (1-indexed).
// `sorted` must be ascending; an empty sample reads 0.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, n - 1)];
}

// Samples lying beyond the reported tail percentile: a tail figure resting
// on fewer outliers than this is an anecdote.
inline constexpr size_t kTailSamples = 10;

// The highest quantile, at most `wanted`, that leaves at least
// kTailSamples samples beyond its nearest rank. Never below the median, so
// a tiny sample still reports something; callers print the sample count.
inline double TailQuantile(size_t n, double wanted) {
  if (n <= kTailSamples) return 0.5;
  double supported = static_cast<double>(n - kTailSamples) /
                     static_cast<double>(n);
  return std::max(0.5, std::min(wanted, supported));
}

// num / den, or 0 when nothing was attempted (den == 0): a workload that
// never reaches a layer reports that layer's ratio as 0, not NaN.
inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

// Median of `v`, averaging the middle pair when the count is even; 0 when
// empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Slices hold this many samples on average: enough for a p95 with
// kTailSamples beyond it (200) even when the request rate varies between
// slices. A window has at most kMaxSlices of them.
inline constexpr size_t kSliceSamples = 300;
inline constexpr size_t kMaxSlices = 10;

// Request figures of a timed window, each the median over equal time
// slices of the window of that slice's figure. The host can stall the
// process for a second or two (other tenants of the machine); the median
// over slices keeps such a stall from moving the whole run's figure.
struct SliceSummary {
  double p50 = 0;     // Median over slices of each slice's p50.
  double tail = 0;    // Same for each slice's TailQuantile(n, wanted).
  double tail_q = 0;  // Lowest tail quantile any slice could support.
  double rate = 0;    // Median over slices of samples * weight / second.
  size_t slices = 0;
  size_t samples = 0;
};

// `done_at[i]` is when sample i completed, in seconds from the window's
// start; `value[i]` is its latency. The window [0, seconds) is cut into
// clamp(n / kSliceSamples, 1, kMaxSlices) slices; samples completing after
// it (requests in flight at the deadline) land in the last slice, whose
// length stretches to cover them. Each sample stands for `weight` records.
inline SliceSummary SliceMedians(const std::vector<double>& done_at,
                                 const std::vector<double>& value,
                                 double seconds, double weight,
                                 double wanted_tail) {
  SliceSummary out;
  out.samples = value.size();
  if (value.empty() || seconds <= 0) return out;
  const size_t count = std::clamp<size_t>(value.size() / kSliceSamples, 1,
                                          kMaxSlices);
  const double length = seconds / static_cast<double>(count);
  std::vector<std::vector<double>> slices(count);
  double last_done = seconds;
  for (size_t i = 0; i < value.size(); ++i) {
    double at = std::max(0.0, done_at[i]);
    size_t k = std::min(count - 1, static_cast<size_t>(at / length));
    slices[k].push_back(value[i]);
    last_done = std::max(last_done, at);
  }
  std::vector<double> p50, tail, rate;
  out.tail_q = wanted_tail;
  for (size_t k = 0; k < count; ++k) {
    std::vector<double>& s = slices[k];
    std::sort(s.begin(), s.end());
    double q = TailQuantile(s.size(), wanted_tail);
    out.tail_q = std::min(out.tail_q, q);
    p50.push_back(NearestRank(s, 0.5));
    tail.push_back(NearestRank(s, q));
    double span = k + 1 == count ? last_done - length * static_cast<double>(k)
                                 : length;
    rate.push_back(static_cast<double>(s.size()) * weight / span);
  }
  out.p50 = Median(p50);
  out.tail = Median(tail);
  out.rate = Median(rate);
  out.slices = count;
  return out;
}

// Due times, in seconds from the start of the window, of a Poisson arrival
// process with mean rate `rate` over [0, seconds), conditioned on its mean
// count round(rate * seconds): given their count, Poisson arrivals are
// independent uniform times. Fixing the count keeps the offered load the
// same for every seed. Deterministic from `seed`.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                           double seconds) {
  pafs::Rng rng(seed);
  size_t count = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<double> due(count);
  for (double& t : due) t = rng.NextDouble() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

// One recorded span: a call from the benchmark into a layer. Spans of one
// request share `request`; `parent` is the id of the enclosing span on the
// same thread (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  double start = 0;  // Seconds since the recorder was created.
  double end = 0;
};

// Self time of every span: its duration minus the union of the intervals
// its children cover (children are clipped to the parent's interval, so
// overlapping or straggling children are not counted twice).
inline std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    double lo = std::max(s.start, p.start);
    double hi = std::min(s.end, p.end);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double union_seconds = 0;
    double cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_seconds += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_seconds += cur_hi - cur_lo;
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) - union_seconds);
  }
  return self;
}

// Keeps spans in memory while the benchmark runs; written out at exit.
// Disabled (the timed runs), Scope is inert: no clock reads, no locking.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool on) { enabled_ = on; }

  // Records the span from construction to destruction, nested under the
  // innermost live Scope of the same recorder on this thread.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, uint64_t request)
        : rec_(rec.enabled_ ? &rec : nullptr) {
      if (rec_ == nullptr) return;
      span_.name = name;
      span_.request = request;
      span_.parent = Current() != nullptr ? Current()->span_.id : 0;
      parent_scope_ = Current();
      Current() = this;
      std::lock_guard<std::mutex> lock(rec_->mu_);
      span_.id = ++rec_->next_id_;
      span_.start = rec_->Now();
    }
    ~Scope() {
      if (rec_ == nullptr) return;
      span_.end = rec_->Now();
      Current() = parent_scope_;
      std::lock_guard<std::mutex> lock(rec_->mu_);
      rec_->spans_.push_back(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static Scope*& Current() {
      thread_local Scope* current = nullptr;
      return current;
    }
    SpanRecorder* rec_;
    Scope* parent_scope_ = nullptr;
    Span span_;
  };

  // Spans finished so far, in completion order.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Durations (seconds) of the finished spans called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  const Clock::time_point origin_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_STATS_H_
