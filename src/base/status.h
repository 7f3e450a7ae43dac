#ifndef XQP_BASE_STATUS_H_
#define XQP_BASE_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace xqp {

/// Error categories used throughout the library. XQuery dynamic and type
/// errors map to the W3C err:* families; the remaining codes cover engine
/// and I/O failures.
enum class StatusCode : uint8_t {
  kOk = 0,
  // Generic engine errors.
  kInvalidArgument,
  kInternal,
  kIoError,
  // XML well-formedness errors (parser).
  kParseError,
  // XQuery static errors (err:XPST*).
  kStaticError,
  // XQuery type errors (err:XPTY*, err:FORG0001 casts, ...).
  kTypeError,
  // XQuery dynamic errors (err:FOER*, division by zero, ...).
  kDynamicError,
  // Execution stopped by a CancelToken / deadline (resource governor).
  kCancelled,
  // A query limit was exceeded: memory budget, result-count cap, depth.
  kResourceExhausted,
  // A persistent snapshot failed validation (bad magic/CRC/offsets); the
  // caller falls back to re-ingesting the original XML.
  kSnapshotCorrupt,
};

/// Returns a human-readable name for `code` ("Ok", "Type error", ...).
std::string_view StatusCodeToString(StatusCode code);

/// Arrow/RocksDB-style status object. Cheap to copy in the OK case
/// (a single pointer test); error details live behind a unique_ptr.
class Status {
 public:
  Status() = default;  // OK.

  Status(StatusCode code, std::string message)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_unique<State>(State{code, std::move(message)})) {}

  Status(const Status& other)
      : state_(other.state_ ? std::make_unique<State>(*other.state_) : nullptr) {}
  Status& operator=(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status StaticError(std::string msg) {
    return Status(StatusCode::kStaticError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status DynamicError(std::string msg) {
    return Status(StatusCode::kDynamicError, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status SnapshotCorrupt(std::string msg) {
    return Status(StatusCode::kSnapshotCorrupt, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->message : kEmpty;
  }

  /// "Type error: cannot compare xs:string with xs:integer".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<State> state_;
};

/// Result<T> is either a value or an error Status; never both.
template <typename T>
class Result {
 public:
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : repr_(std::move(status)) {}  // NOLINT
  Result(StatusCode code, std::string message)
      : repr_(Status(code, std::move(message))) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }

  T& value() & { return std::get<T>(repr_); }
  const T& value() const& { return std::get<T>(repr_); }
  T&& value() && { return std::move(std::get<T>(repr_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Moves the value out, or terminates if this holds an error.
  /// For tests and examples only.
  T ValueOrDie() &&;

 private:
  std::variant<T, Status> repr_;
};

template <typename T>
T Result<T>::ValueOrDie() && {
  if (!ok()) {
    std::fprintf(stderr, "Result::ValueOrDie on error: %s\n",
                 status().ToString().c_str());
    std::abort();
  }
  return std::move(std::get<T>(repr_));
}

// Propagates a non-OK Status out of the current function.
#define XQP_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::xqp::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                  \
  } while (0)

#define XQP_CONCAT_IMPL(a, b) a##b
#define XQP_CONCAT(a, b) XQP_CONCAT_IMPL(a, b)

// Evaluates a Result<T> expression; on error returns the Status, otherwise
// move-assigns the value into `lhs` (which may be a declaration).
#define XQP_ASSIGN_OR_RETURN(lhs, rexpr)                             \
  XQP_ASSIGN_OR_RETURN_IMPL(XQP_CONCAT(_res_, __LINE__), lhs, rexpr)

#define XQP_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                              \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value();

}  // namespace xqp

#endif  // XQP_BASE_STATUS_H_
