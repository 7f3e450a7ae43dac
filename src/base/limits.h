#ifndef XQP_BASE_LIMITS_H_
#define XQP_BASE_LIMITS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "base/status.h"

namespace xqp {

/// Cooperative cancellation flag shared between the thread that requests
/// cancellation and the queries observing it. Same gating trick as the
/// metrics registry: observers pay one relaxed atomic load per check.
/// Tokens are shared_ptrs so an engine can swap in a fresh token after
/// CancelAll() while in-flight executions keep watching the old one.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query resource limits. All fields default to "unlimited"; a
/// default-constructed QueryLimits governs nothing (checks still run, but
/// can only trip on an explicit CancelToken). Merged from
/// EngineOptions::default_limits, the XQP_DEADLINE_MS / XQP_MEM_BUDGET
/// environment knobs, and the per-call ExecOptions.
struct QueryLimits {
  /// Wall-clock budget for one execution; 0 = no deadline. The governor
  /// turns this into an absolute deadline when the run starts.
  std::chrono::milliseconds timeout{0};

  /// Bytes of query-attributable allocation (document construction,
  /// materialized sequences, string-pool growth) before the run fails with
  /// kResourceExhausted; 0 = unlimited.
  uint64_t memory_budget_bytes = 0;

  /// XML element nesting the pull parser accepts before kParseError.
  /// Bounded above by the uint16_t NodeRecord level field. 0 = default.
  uint32_t max_parse_depth = 0;

  /// XQuery expression nesting the parser accepts before kStaticError;
  /// guards the recursive-descent parser's own stack. 0 = default.
  uint32_t max_expr_depth = 0;

  /// Cap on items delivered to the caller; exceeding it is
  /// kResourceExhausted ("did you mean to stream this?"). 0 = unlimited.
  uint64_t max_result_items = 0;

  /// External cancellation, or null. Checked at every governor poll.
  std::shared_ptr<CancelToken> cancel;

  /// The built-in ceilings used when the fields above are 0. The
  /// expression default is sized for the *worst* build we ship: each
  /// nesting level costs a chain of recursive-descent frames
  /// (ParseExprSingle down to ParsePrimary), which ASan's redzones
  /// inflate several-fold; the sanitizer CI lane checks that the default
  /// fits an 8MB stack. Raising max_expr_depth far past it is the caller
  /// taking on stack risk.
  static constexpr uint32_t kDefaultMaxParseDepth = 4096;
  static constexpr uint32_t kDefaultMaxExprDepth = 128;

  uint32_t effective_parse_depth() const {
    return max_parse_depth == 0 ? kDefaultMaxParseDepth : max_parse_depth;
  }
  uint32_t effective_expr_depth() const {
    return max_expr_depth == 0 ? kDefaultMaxExprDepth : max_expr_depth;
  }
};

/// One execution's governor: owns the absolute deadline, the byte/item
/// accounts, and a sticky trip latch. Lives on the engine's stack for the
/// duration of one Execute/Open/Profile run; pointed to by DynamicContext
/// and (for ctx-free code like join kernels and pool workers) by a
/// thread-local installed via GovernorScope.
///
/// Poll() is the cooperative check: ~2 relaxed loads on the happy path,
/// with the clock consulted only every kClockStride polls. Once any check
/// fails the governor is *tripped* — every later Poll() returns the same
/// error, so a deep iterator tree unwinds with a consistent status.
class ResourceGovernor {
 public:
  /// `extra_cancel` is a second token checked alongside limits.cancel —
  /// the engine passes its CancelAll() token here so per-query tokens and
  /// engine-wide cancellation compose.
  explicit ResourceGovernor(const QueryLimits& limits,
                            std::shared_ptr<CancelToken> extra_cancel = {});
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  const QueryLimits& limits() const { return limits_; }

  /// The cooperative check; call at iterator Next() boundaries, morsel
  /// loops, and sort/drain entry points. OK unless cancelled, past
  /// deadline, or already tripped.
  Status Poll() {
    TripCode t = trip_.load(std::memory_order_relaxed);
    if (t != TripCode::kNone) return TripStatus(t);
    if ((limits_.cancel != nullptr && limits_.cancel->cancelled()) ||
        (extra_cancel_ != nullptr && extra_cancel_->cancelled())) {
      return Trip(TripCode::kCancelled);
    }
    if (has_deadline_ &&
        (polls_.fetch_add(1, std::memory_order_relaxed) % kClockStride) == 0 &&
        Clock::now() >= deadline_) {
      return Trip(TripCode::kDeadline);
    }
    return Status::OK();
  }

  /// Adds `bytes` to the query's memory account; trips kResourceExhausted
  /// when the budget is configured and exceeded. Charging with no budget
  /// set still maintains the account (cheap: one relaxed fetch_add).
  Status ChargeBytes(uint64_t bytes) {
    uint64_t total =
        bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limits_.memory_budget_bytes != 0 &&
        total > limits_.memory_budget_bytes) {
      return Trip(TripCode::kMemory);
    }
    return Status::OK();
  }

  /// Counts result items delivered to the caller against
  /// max_result_items.
  Status ChargeResultItems(uint64_t items) {
    uint64_t total =
        items_.fetch_add(items, std::memory_order_relaxed) + items;
    if (limits_.max_result_items != 0 && total > limits_.max_result_items) {
      return Trip(TripCode::kResultItems);
    }
    return Status::OK();
  }

  /// True once any check has failed; ctx-free morsel loops use this to
  /// skip remaining work (the caller's next Poll() reports the error).
  bool tripped() const {
    return trip_.load(std::memory_order_relaxed) != TripCode::kNone;
  }

  uint64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t items_charged() const {
    return items_.load(std::memory_order_relaxed);
  }

  /// Clock reads are amortized: 1 in kClockStride polls checks the
  /// deadline.
  static constexpr uint64_t kClockStride = 64;

 private:
  using Clock = std::chrono::steady_clock;

  enum class TripCode : uint8_t {
    kNone = 0,
    kCancelled,
    kDeadline,
    kMemory,
    kResultItems,
  };

  Status Trip(TripCode code);
  Status TripStatus(TripCode code) const;

  QueryLimits limits_;
  std::shared_ptr<CancelToken> extra_cancel_;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::atomic<TripCode> trip_{TripCode::kNone};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> items_{0};
};

/// The governor observing the calling thread, or null. Code without a
/// DynamicContext (join kernels, ddo sort, pool workers) checks this;
/// ParallelForChunks propagates the caller's governor into its workers.
ResourceGovernor* CurrentGovernor();

/// Installs `g` as the calling thread's CurrentGovernor() for the scope.
class GovernorScope {
 public:
  explicit GovernorScope(ResourceGovernor* g);
  ~GovernorScope();
  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  ResourceGovernor* saved_;
};

}  // namespace xqp

#endif  // XQP_BASE_LIMITS_H_
