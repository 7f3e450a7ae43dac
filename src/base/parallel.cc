#include "base/parallel.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/fault.h"
#include "base/limits.h"
#include "base/metrics.h"

namespace xqp {

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool shutting_down = false;

  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return shutting_down || !queue.empty(); });
        if (queue.empty()) return;  // Shutdown with a drained queue.
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : impl_(new Impl), num_threads_(num_threads < 0 ? 0 : num_threads) {
  if (num_threads_ <= 1) num_threads_ = 0;  // Serial pool: no workers.
  impl_->workers.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::Submit(std::function<void()> fn) {
  // Fault site "pool.submit": model a refused enqueue. The task runs
  // inline on the caller instead, which is exactly the degradation the
  // help-first fork/join protocol must tolerate without deadlocking.
  if (fault::Armed() && !fault::MaybeInject("pool.submit").ok()) {
    fn();
    return;
  }
  if (num_threads_ == 0) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push_back(std::move(fn));
  }
  impl_->cv.notify_one();
}

std::optional<int> ParseThreadCount(std::string_view value) {
  int n = 0;
  auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), n);
  if (ec != std::errc() || end != value.data() + value.size() || n < 1 ||
      n > kMaxThreadCount) {
    return std::nullopt;
  }
  return n;
}

int DefaultParallelism() {
  const char* env = std::getenv("XQP_THREADS");
  if (env != nullptr && *env != '\0') {
    std::optional<int> n = ParseThreadCount(env);
    if (!n.has_value()) {
      std::fprintf(stderr,
                   "XQP_THREADS: unrecognized value \"%s\" (expected an "
                   "integer from 1 to %d)\n",
                   env, kMaxThreadCount);
      std::exit(2);
    }
    return *n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultParallelism());
  return *pool;
}

namespace {

/// Shared state for one fork/join region. Workers and the caller claim
/// chunk indices from `next`; the caller spins on chunk completion via the
/// condition variable. Allocated on the caller's stack — every participant
/// finishes before ParallelForChunks returns.
struct ForkJoin {
  const std::function<void(size_t)>* fn;
  size_t num_chunks;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;

  /// Claims and runs chunks until none are left. `chunks_executed`, when
  /// non-null, tallies this participant's completed chunks into the pool
  /// utilization metrics (caller vs worker split).
  void Drain(metrics::Counter* chunks_executed) {
    while (true) {
      size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      (*fn)(c);
      if (chunks_executed != nullptr) chunks_executed->Increment();
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ParallelForChunks(size_t num_chunks,
                       const std::function<void(size_t)>& fn) {
  if (num_chunks == 0) return;
  ThreadPool& pool = ThreadPool::Global();
  if (num_chunks == 1 || pool.num_threads() == 0) {
    if (metrics::Enabled()) {
      static metrics::Counter* serial_regions =
          metrics::MetricsRegistry::Global().counter("pool.serial_regions");
      serial_regions->Increment();
    }
    for (size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  metrics::Counter* caller_chunks = nullptr;
  metrics::Counter* worker_chunks = nullptr;
  if (metrics::Enabled()) {
    auto& reg = metrics::MetricsRegistry::Global();
    static metrics::Counter* regions = reg.counter("pool.forkjoin_regions");
    static metrics::Counter* tasks = reg.counter("pool.tasks_submitted");
    static metrics::Counter* by_caller = reg.counter("pool.chunks.caller");
    static metrics::Counter* by_worker = reg.counter("pool.chunks.worker");
    regions->Increment();
    caller_chunks = by_caller;
    worker_chunks = by_worker;
    tasks->Add(std::min<size_t>(static_cast<size_t>(pool.num_threads()),
                                num_chunks - 1));
  }
  auto state = std::make_shared<ForkJoin>();
  state->fn = &fn;
  state->num_chunks = num_chunks;
  // One helper per worker (capped by chunk count); each drains the shared
  // counter, so idle workers cost one no-op wakeup at most. The caller's
  // resource governor rides along: chunk bodies on worker threads see the
  // same CurrentGovernor() as the submitting query, so morsel loops can
  // honor cancellation from any thread.
  ResourceGovernor* governor = CurrentGovernor();
  size_t helpers = std::min<size_t>(
      static_cast<size_t>(pool.num_threads()), num_chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([state, worker_chunks, governor] {
      GovernorScope scope(governor);
      state->Drain(worker_chunks);
    });
  }
  state->Drain(caller_chunks);
  // The caller ran out of chunks to claim; wait for stragglers. `fn` stays
  // alive (and the shared_ptr keeps `state` alive) until every helper has
  // left Drain — helpers that lost the claim race exit without touching fn.
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->num_chunks;
  });
}

void ParallelFor(size_t n, int num_chunks,
                 const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t chunks = num_chunks <= 1 ? 1 : static_cast<size_t>(num_chunks);
  chunks = std::min(chunks, n);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  ParallelForChunks(chunks, [&](size_t c) {
    fn(n * c / chunks, n * (c + 1) / chunks);
  });
}

}  // namespace xqp
