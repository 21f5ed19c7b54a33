// Status: lightweight error propagation without exceptions, in the style of
// RocksDB/Arrow. Functions that can fail return Status (or Result<T>, see
// result.h); callers must inspect the returned object.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace declust {

/// \brief Outcome of an operation that can fail.
///
/// A default-constructed Status is OK. Non-OK statuses carry a code and a
/// human-readable message. As in Arrow, a Status is one pointer: null means
/// OK, and an error owns a heap State holding its code and message. So the
/// happy path builds nothing, every coroutine frame, awaiter and promise
/// that holds a Status pays one word for it, and each non-OK status costs
/// one allocation. Copying an error deep-copies its State; a move steals
/// it and leaves the source OK.
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kOutOfRange,
    kFailedPrecondition,
    kInternal,
    kNotSupported,
    kUnavailable,
    kIoError,
    kDeadlineExceeded,
  };

  /// Constructs an OK status.
  Status() noexcept = default;
  Status(const Status& other)
      : state_(other.ok() ? nullptr : new State(*other.state_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_.reset(other.ok() ? nullptr : new State(*other.state_));
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(Code::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(Code::kAlreadyExists, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(Code::kOutOfRange, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(Code::kFailedPrecondition, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(Code::kInternal, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(Code::kNotSupported, msg);
  }
  /// A component (disk, node, link) is down; retrying against the same
  /// component will not help — callers should fail over or give up.
  static Status Unavailable(std::string_view msg) {
    return Status(Code::kUnavailable, msg);
  }
  /// A transient I/O error; the operation may succeed if retried.
  static Status IoError(std::string_view msg) {
    return Status(Code::kIoError, msg);
  }
  /// The per-query deadline expired before the operation completed.
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(Code::kDeadlineExceeded, msg);
  }

  bool ok() const { return state_ == nullptr; }
  Code code() const { return ok() ? Code::kOk : state_->code; }
  /// Message associated with a non-OK status; empty for OK.
  const std::string& message() const;

  /// "OK" or "<code>: <message>" for diagnostics.
  std::string ToString() const;

  bool IsInvalidArgument() const { return code() == Code::kInvalidArgument; }
  bool IsNotFound() const { return code() == Code::kNotFound; }
  bool IsAlreadyExists() const { return code() == Code::kAlreadyExists; }
  bool IsOutOfRange() const { return code() == Code::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code() == Code::kFailedPrecondition;
  }
  bool IsInternal() const { return code() == Code::kInternal; }
  bool IsNotSupported() const { return code() == Code::kNotSupported; }
  bool IsUnavailable() const { return code() == Code::kUnavailable; }
  bool IsIoError() const { return code() == Code::kIoError; }
  bool IsDeadlineExceeded() const {
    return code() == Code::kDeadlineExceeded;
  }

 private:
  struct State {
    Code code;
    std::string message;
  };

  Status(Code code, std::string_view msg)
      : state_(new State{code, std::string(msg)}) {}

  std::unique_ptr<State> state_;
};

static_assert(sizeof(Status) == sizeof(void*),
              "a Status is one pointer: null for OK, else its State");

/// Propagates a non-OK status to the caller.
#define DECLUST_RETURN_NOT_OK(expr)               \
  do {                                            \
    ::declust::Status _st = (expr);               \
    if (!_st.ok()) return _st;                    \
  } while (0)

/// Propagates a non-OK status out of a coroutine returning Task<Status>.
#define DECLUST_CO_RETURN_NOT_OK(expr)            \
  do {                                            \
    ::declust::Status _st = (expr);               \
    if (!_st.ok()) co_return _st;                 \
  } while (0)

/// Like DECLUST_CO_RETURN_NOT_OK, but runs `cleanup` (any expression, e.g.
/// a lambda call closing a trace span) before propagating the error.
#define DECLUST_CO_RETURN_NOT_OK_CLEANUP(expr, cleanup) \
  do {                                                  \
    ::declust::Status _st = (expr);                     \
    if (!_st.ok()) {                                    \
      cleanup;                                          \
      co_return _st;                                    \
    }                                                   \
  } while (0)

}  // namespace declust
