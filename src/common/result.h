// Result<T>: value-or-Status, in the style of arrow::Result.
#pragma once

#include <cassert>
#include <utility>
#include <variant>

#include "src/common/status.h"

namespace declust {

/// \brief Holds either a value of type T or a non-OK Status.
///
/// Use ValueOrDie()/operator* after checking ok(), or move the value out
/// with ValueOrDie() on an rvalue.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a Result holding a value (implicit, like arrow::Result).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a Result holding an error. An OK `status` is a caller bug;
  /// it is stored as an Internal error (in every build type) so that
  /// DECLUST_ASSIGN_OR_RETURN propagates a failure instead of returning OK
  /// with its target never assigned.
  Result(Status status)  // NOLINT(runtime/explicit)
      : repr_(status.ok() ? Status::Internal("Result built from an OK Status")
                          : std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Status of the result: OK when a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  const T& ValueOrDie() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  T ValueOrDie() && {
    assert(ok());
    return std::move(std::get<T>(repr_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<T, Status> repr_;
};

/// Propagates the error of a Result expression, or assigns its value.
#define DECLUST_ASSIGN_OR_RETURN(lhs, expr)          \
  auto DECLUST_CONCAT_(_res_, __LINE__) = (expr);    \
  if (!DECLUST_CONCAT_(_res_, __LINE__).ok())        \
    return DECLUST_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(DECLUST_CONCAT_(_res_, __LINE__)).ValueOrDie()

#define DECLUST_CONCAT_(a, b) DECLUST_CONCAT_IMPL_(a, b)
#define DECLUST_CONCAT_IMPL_(a, b) a##b

}  // namespace declust
