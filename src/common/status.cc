#include "src/common/status.h"

namespace declust {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kAlreadyExists:
      return "AlreadyExists";
    case Status::Code::kOutOfRange:
      return "OutOfRange";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
    case Status::Code::kInternal:
      return "Internal";
    case Status::Code::kNotSupported:
      return "NotSupported";
    case Status::Code::kUnavailable:
      return "Unavailable";
    case Status::Code::kIoError:
      return "IoError";
    case Status::Code::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

}  // namespace

const std::string& Status::message() const {
  static const std::string kEmpty;
  return ok() ? kEmpty : state_->message;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(state_->code);
  out += ": ";
  out += state_->message;
  return out;
}

}  // namespace declust
