#include "src/common/status.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/common/result.h"

namespace declust {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad K");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad K");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad K");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  DECLUST_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_TRUE(Chain(-1).IsInvalidArgument());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "hello");
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  DECLUST_ASSIGN_OR_RETURN(int half, HalfOf(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseAssignOrReturn(7, &out).IsInvalidArgument());
}

TEST(StatusTest, CopyOfErrorIsIndependentOfTheOriginal) {
  Status original = Status::IoError("disk 3");
  Status copy = original;
  EXPECT_TRUE(copy.IsIoError());
  EXPECT_EQ(copy.message(), "disk 3");
  // The copy owns its own State: replacing or destroying the original
  // leaves it intact.
  original = Status::NotFound("other");
  EXPECT_TRUE(copy.IsIoError());
  EXPECT_EQ(copy.message(), "disk 3");
  {
    Status scoped = copy;
    Status assigned;
    assigned = scoped;
    EXPECT_EQ(assigned.ToString(), "IoError: disk 3");
  }
  EXPECT_EQ(copy.ToString(), "IoError: disk 3");
  EXPECT_EQ(original.ToString(), "NotFound: other");
}

TEST(StatusTest, CopyOfOkIsOk) {
  const Status ok;
  Status copy = ok;
  EXPECT_TRUE(copy.ok());
  Status error = Status::Internal("x");
  error = ok;
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(error.code(), Status::Code::kOk);
}

TEST(StatusTest, MovedFromStatusIsOk) {
  Status source = Status::Unavailable("node down");
  Status target = std::move(source);
  EXPECT_TRUE(target.IsUnavailable());
  EXPECT_EQ(target.message(), "node down");
  EXPECT_TRUE(source.ok());  // NOLINT(bugprone-use-after-move)
  Status assigned;
  assigned = std::move(target);
  EXPECT_TRUE(assigned.IsUnavailable());
  EXPECT_TRUE(target.ok());  // NOLINT(bugprone-use-after-move)
}

TEST(StatusTest, SelfCopyAssignmentIsSafe) {
  Status s = Status::OutOfRange("page 9");
  Status& alias = s;
  s = alias;
  EXPECT_TRUE(s.IsOutOfRange());
  EXPECT_EQ(s.message(), "page 9");
  Status ok;
  Status& ok_alias = ok;
  ok = ok_alias;
  EXPECT_TRUE(ok.ok());
}

TEST(StatusTest, MessageOfOkIsEmpty) {
  EXPECT_TRUE(Status().message().empty());
  EXPECT_TRUE(Status::OK().message().empty());
}

TEST(StatusTest, ToStringOfEveryCode) {
  const struct {
    Status status;
    Status::Code code;
    const char* text;
  } kCases[] = {
      {Status::OK(), Status::Code::kOk, "OK"},
      {Status::InvalidArgument("m"), Status::Code::kInvalidArgument,
       "InvalidArgument: m"},
      {Status::NotFound("m"), Status::Code::kNotFound, "NotFound: m"},
      {Status::AlreadyExists("m"), Status::Code::kAlreadyExists,
       "AlreadyExists: m"},
      {Status::OutOfRange("m"), Status::Code::kOutOfRange, "OutOfRange: m"},
      {Status::FailedPrecondition("m"), Status::Code::kFailedPrecondition,
       "FailedPrecondition: m"},
      {Status::Internal("m"), Status::Code::kInternal, "Internal: m"},
      {Status::NotSupported("m"), Status::Code::kNotSupported,
       "NotSupported: m"},
      {Status::Unavailable("m"), Status::Code::kUnavailable,
       "Unavailable: m"},
      {Status::IoError("m"), Status::Code::kIoError, "IoError: m"},
      {Status::DeadlineExceeded("m"), Status::Code::kDeadlineExceeded,
       "DeadlineExceeded: m"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(c.status.code(), c.code) << c.text;
    EXPECT_EQ(c.status.ToString(), c.text);
  }
}

TEST(ResultTest, ErrorRoundTrip) {
  Result<std::string> r = Status::DeadlineExceeded("query 7");
  ASSERT_FALSE(r.ok());
  const Status st = r.status();
  EXPECT_TRUE(st.IsDeadlineExceeded());
  EXPECT_EQ(st.message(), "query 7");
  // status() hands out a copy: the Result still holds its error.
  EXPECT_EQ(r.status().ToString(), "DeadlineExceeded: query 7");
  Result<std::string> copy = r;
  EXPECT_EQ(copy.status().ToString(), "DeadlineExceeded: query 7");
}

Result<int> WronglyOk() { return Status::OK(); }

Status AssignFromWronglyOk(int* out) {
  DECLUST_ASSIGN_OR_RETURN(*out, WronglyOk());
  return Status::OK();
}

TEST(ResultTest, OkStatusBecomesInternalErrorInEveryBuildType) {
  // A Result cannot hold an OK status: it would have no value either, and
  // DECLUST_ASSIGN_OR_RETURN would return OK with its target unassigned.
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
  EXPECT_EQ(r.status().message(), "Result built from an OK Status");
  int out = -1;
  EXPECT_TRUE(AssignFromWronglyOk(&out).IsInternal());
  EXPECT_EQ(out, -1);
}

}  // namespace
}  // namespace declust
