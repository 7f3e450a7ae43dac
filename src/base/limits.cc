#include "base/limits.h"

#include <string>

#include "base/metrics.h"

namespace xqp {

namespace {

thread_local ResourceGovernor* tls_governor = nullptr;

void NoteTrip(bool cancelled) {
  // Trips are rare and worth counting even when tracing is off, so they
  // show up in the next PROFILE report; registration is once per process.
  static metrics::Counter* cancelled_count =
      metrics::MetricsRegistry::Global().counter("governor.cancelled");
  static metrics::Counter* budget_trips =
      metrics::MetricsRegistry::Global().counter("governor.budget_trips");
  (cancelled ? cancelled_count : budget_trips)->Increment();
}

}  // namespace

ResourceGovernor::ResourceGovernor(const QueryLimits& limits,
                                   std::shared_ptr<CancelToken> extra_cancel)
    : limits_(limits), extra_cancel_(std::move(extra_cancel)) {
  if (limits_.timeout.count() > 0) {
    has_deadline_ = true;
    deadline_ = Clock::now() + limits_.timeout;
  }
}

Status ResourceGovernor::Trip(TripCode code) {
  TripCode expected = TripCode::kNone;
  if (trip_.compare_exchange_strong(expected, code,
                                    std::memory_order_relaxed)) {
    NoteTrip(code == TripCode::kCancelled);
    return TripStatus(code);
  }
  // Another thread tripped first; report its (sticky) verdict.
  return TripStatus(expected);
}

Status ResourceGovernor::TripStatus(TripCode code) const {
  switch (code) {
    case TripCode::kCancelled:
      return Status::Cancelled("query cancelled");
    case TripCode::kDeadline:
      return Status::Cancelled(
          "query deadline of " + std::to_string(limits_.timeout.count()) +
          "ms exceeded");
    case TripCode::kMemory:
      return Status::ResourceExhausted(
          "query memory budget of " +
          std::to_string(limits_.memory_budget_bytes) + " bytes exceeded");
    case TripCode::kResultItems:
      return Status::ResourceExhausted(
          "query result cap of " +
          std::to_string(limits_.max_result_items) + " items exceeded");
    case TripCode::kNone:
      break;
  }
  return Status::OK();
}

ResourceGovernor* CurrentGovernor() { return tls_governor; }

GovernorScope::GovernorScope(ResourceGovernor* g) : saved_(tls_governor) {
  tls_governor = g;
}

GovernorScope::~GovernorScope() { tls_governor = saved_; }

}  // namespace xqp
