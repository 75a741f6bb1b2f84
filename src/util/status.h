#ifndef SKYUP_UTIL_STATUS_H_
#define SKYUP_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace skyup {

/// Error categories used across the library. Modeled after the
/// RocksDB/Arrow status idiom: functions that can fail return a `Status`
/// (or a `Result<T>`), never throw.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIOError,
  kNotSupported,
  kCancelled,
  kDeadlineExceeded,
  kResourceExhausted,
};

/// Returns a human-readable name for `code` (e.g., "InvalidArgument").
std::string_view StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value.
///
/// The OK status carries no message and allocates nothing. Error statuses
/// carry a code and a free-form message describing the failure.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message. `code` must not
  /// be `kOk`; use the default constructor for success.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code_ != StatusCode::kOk);
  }

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error wrapper: holds either a `T` or an error `Status`.
///
/// Usage:
///   Result<FlatRTree> r = FlatRTree::BulkLoad(...);
///   if (!r.ok()) return r.status();
///   FlatRTree tree = std::move(r).value();
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status. `status` must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    assert(!status_.ok());
  }

  bool ok() const { return value_.has_value(); }

  /// The error status, or OK if this result holds a value.
  const Status& status() const { return status_; }

  /// Accessors require `ok()`.
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Propagates an error status out of the current function.
#define SKYUP_RETURN_IF_ERROR(expr)              \
  do {                                           \
    ::skyup::Status _st = (expr);                \
    if (!_st.ok()) return _st;                   \
  } while (false)

}  // namespace skyup

#endif  // SKYUP_UTIL_STATUS_H_
