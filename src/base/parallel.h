#ifndef XQP_BASE_PARALLEL_H_
#define XQP_BASE_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>

namespace xqp {

/// Fixed-size pool of worker threads with a shared FIFO task queue. Tasks
/// are plain closures; there is no work stealing — ParallelFor instead uses
/// a "help-first" scheme where the submitting thread claims chunks from the
/// same atomic counter as the workers, so a caller never blocks waiting for
/// a queue slot and nested ParallelFor calls cannot deadlock (every thread
/// that waits is itself draining chunks).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 or 1 makes an inert (serial) pool.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for a serial pool).
  int num_threads() const { return num_threads_; }

  /// Enqueues `fn` for execution on some worker. Runs inline when the pool
  /// is serial.
  void Submit(std::function<void()> fn);

  /// The process-wide pool, sized by DefaultParallelism() on first use.
  static ThreadPool& Global();

 private:
  struct Impl;
  Impl* impl_;
  int num_threads_ = 0;
};

/// Largest worker count XQP_THREADS accepts.
inline constexpr int kMaxThreadCount = 256;

/// Parses an XQP_THREADS value: a plain decimal integer from 1 to
/// kMaxThreadCount, no sign and no trailing text. nullopt for anything
/// else, the empty string included (DefaultParallelism treats an empty
/// value as unset before it gets here).
std::optional<int> ParseThreadCount(std::string_view value);

/// Parallelism the engine should use by default: the XQP_THREADS environment
/// variable when set and non-empty, otherwise
/// std::thread::hardware_concurrency(). A value of 1 means "run everything
/// serially". An unrecognized value is a startup error: message on stderr,
/// exit 2 (the same contract as the engine's XQP_* knobs).
int DefaultParallelism();

/// Runs fn(chunk_begin, chunk_end) over a partition of [0, n) using the
/// global pool. `num_chunks` ≤ 1 (or a serial pool, or n ≤ 1) degrades to a
/// single inline call fn(0, n). Blocks until every chunk has run; the
/// calling thread participates, so this is safe to nest. Chunks are split
/// evenly; callers that need boundary-aligned partitions should compute
/// their own chunk list and use ParallelForChunks.
void ParallelFor(size_t n, int num_chunks,
                 const std::function<void(size_t, size_t)>& fn);

/// Runs fn(i) for i in [0, num_chunks) with the same help-first execution
/// as ParallelFor — for pre-computed, irregular partitions.
void ParallelForChunks(size_t num_chunks,
                       const std::function<void(size_t)>& fn);

}  // namespace xqp

#endif  // XQP_BASE_PARALLEL_H_
