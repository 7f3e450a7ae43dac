#include "base/metrics.h"

#include <bit>
#include <cstdlib>
#include <cstring>

namespace xqp {
namespace metrics {

namespace {

// Small per-thread id assigned on first use; cheaper and better distributed
// than hashing std::this_thread::get_id() on every increment.
size_t NextThreadOrdinal() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

size_t Counter::StripeIndex() {
  thread_local size_t ordinal = NextThreadOrdinal();
  return ordinal % kStripes;
}

void Histogram::Record(uint64_t value) {
  size_t bucket = value == 0 ? 0 : size_t(std::bit_width(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = min_.load(std::memory_order_relaxed);
  while (value < prev &&
         !min_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p <= 0.0) return min;
  if (p >= 100.0) return max;
  uint64_t rank = uint64_t(p / 100.0 * double(count));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      // Inclusive upper bound of bucket b, clamped to the observed max.
      uint64_t bound = b == 0 ? 0
                     : b >= 64 ? ~uint64_t{0}
                               : (uint64_t{1} << b) - 1;
      return bound > max ? max : bound;
    }
  }
  return max;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  uint64_t mn = min_.load(std::memory_order_relaxed);
  s.min = s.count == 0 || mn == ~uint64_t{0} ? 0 : mn;
  s.max = max_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return s;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& before) const {
  MetricsSnapshot d;
  for (const auto& [name, value] : counters) {
    auto it = before.counters.find(name);
    uint64_t base = it == before.counters.end() ? 0 : it->second;
    d.counters[name] = value >= base ? value - base : 0;
  }
  for (const auto& [name, snap] : histograms) {
    Histogram::Snapshot ds = snap;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      const Histogram::Snapshot& b = it->second;
      ds.count = snap.count >= b.count ? snap.count - b.count : 0;
      ds.sum = snap.sum >= b.sum ? snap.sum - b.sum : 0;
    }
    d.histograms[name] = ds;
  }
  return d;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    s.counters[name] = c->Value();
  }
  for (const auto& [name, h] : histograms_) {
    s.histograms[name] = h->TakeSnapshot();
  }
  return s;
}

bool TraceEnvRequested() {
  const char* v = std::getenv("XQP_TRACE");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

OpMetrics::OpMetrics(std::string_view name) {
  auto& reg = MetricsRegistry::Global();
  std::string base(name);
  calls = reg.counter(base + ".calls");
  items = reg.counter(base + ".items");
  wall_ns = reg.histogram(base + ".wall_ns");
}

}  // namespace metrics
}  // namespace xqp
