#ifndef XQP_BASE_METRICS_H_
#define XQP_BASE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace xqp {
namespace metrics {

/// Lock-free monotonically increasing counter. Increments hash the calling
/// thread onto one of a fixed set of cache-line-padded stripes (relaxed
/// fetch_add, no contention between pool workers); Value() merges the
/// stripes on read, so snapshots are cheap and writes stay cheap.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    stripes_[StripeIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over all stripes. Concurrent increments may or may not be
  /// included; the value is exact once writers quiesce.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

  static constexpr size_t kStripes = 16;

 private:
  static size_t StripeIndex();

  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
};

/// Fixed-size log2-bucketed histogram for latencies and sizes. Recording is
/// a handful of relaxed atomic ops; percentiles are approximate (resolved
/// to the bucket's inclusive upper bound, i.e. within 2x of the true
/// value), while count/sum/min/max are exact.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);

  /// Bucket b holds value 0 for b == 0, else values in [2^(b-1), 2^b - 1].
  static constexpr size_t kNumBuckets = 65;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  // Exact; 0 when empty.
    uint64_t max = 0;  // Exact; 0 when empty.

    /// Approximate percentile: the inclusive upper bound of the bucket
    /// holding the p-th value (p in [0,100]). p=0 returns min and p=100
    /// returns max, both exact. 0 when empty.
    uint64_t Percentile(double p) const;

    double Mean() const { return count == 0 ? 0.0 : double(sum) / count; }

    uint64_t buckets[kNumBuckets] = {};
  };
  Snapshot TakeSnapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// RAII wall-clock timer recording elapsed nanoseconds into a histogram on
/// destruction. A null histogram makes construction and destruction no-ops
/// (no clock read) — pass `enabled ? h : nullptr` on hot paths.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (h_ != nullptr) {
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      h_->Record(ns < 0 ? 0 : uint64_t(ns));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

/// A point-in-time view of every registered metric, for EXPLAIN/PROFILE
/// reports and tests. Counter values are absolute; Delta() turns two
/// snapshots into per-run numbers.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram::Snapshot> histograms;

  /// Counters and histogram count/sum become differences against `before`
  /// (clamped at 0); histogram min/max/buckets keep the end-of-run values
  /// (the bucket array is cumulative, so percentiles of a delta are
  /// approximations over the whole registry lifetime).
  MetricsSnapshot Delta(const MetricsSnapshot& before) const;
};

/// Process-wide named registry. Metric objects are created on first lookup
/// and live for the process lifetime, so call sites can cache the returned
/// pointers (function-local statics) and skip the map on the hot path.
/// Recording is gated by an atomic `enabled` flag: when false, the
/// convention is that call sites skip recording entirely, so the cost of
/// the whole subsystem is one relaxed atomic load and a branch.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter* counter(std::string_view name);
  Histogram* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// True when the global registry collects (one relaxed load).
inline bool Enabled() { return MetricsRegistry::Global().enabled(); }

/// True when the XQP_TRACE environment variable is set to a non-empty,
/// non-"0" value; the engine then enables the global registry at startup.
bool TraceEnvRequested();

/// The standard per-kernel triple — invocations, items produced, wall time —
/// registered as `<name>.calls`, `<name>.items`, `<name>.wall_ns`. Intended
/// for function-local statics in join/sort kernels:
///
///   static OpMetrics m("join.stack_tree_desc");
///   ScopedTimer t(Enabled() ? m.wall_ns : nullptr);
///   ...
///   if (Enabled()) { m.calls->Increment(); m.items->Add(out.size()); }
struct OpMetrics {
  Counter* calls;
  Counter* items;
  Histogram* wall_ns;

  explicit OpMetrics(std::string_view name);
};

}  // namespace metrics
}  // namespace xqp

#endif  // XQP_BASE_METRICS_H_
