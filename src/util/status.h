// Status: error propagation without exceptions (LevelDB idiom).
//
// All fallible engine operations return a Status. A status without a message
// — OK, or the bare NotFound a point read returns for a missing key — holds
// no state, so the common cases allocate nothing.

#ifndef LEVELDBPP_UTIL_STATUS_H_
#define LEVELDBPP_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <utility>

#include "util/slice.h"

namespace leveldbpp {

class Status {
 public:
  Status() = default;
  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  // A moved-from Status reads OK, so one can be reused after its error
  // has been moved out.
  Status(Status&& other) noexcept
      : code_(std::exchange(other.code_, kOk)),
        state_(std::move(other.state_)) {}
  Status& operator=(Status&& other) noexcept {
    code_ = std::exchange(other.code_, kOk);
    state_ = std::move(other.state_);
    return *this;
  }

  static Status OK() { return Status(); }
  static Status NotFound(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kNotFound, msg, msg2);
  }
  static Status Corruption(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kCorruption, msg, msg2);
  }
  static Status NotSupported(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kNotSupported, msg, msg2);
  }
  static Status InvalidArgument(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kInvalidArgument, msg, msg2);
  }
  static Status IOError(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kIOError, msg, msg2);
  }
  /// Transient refusal: the resource exists and is healthy enough to answer,
  /// but cannot absorb this operation right now (write-stall ladder with
  /// `WriteOptions::no_stall`, server admission control). Retrying after a
  /// backoff is expected to succeed; nothing was applied.
  static Status Busy(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kBusy, msg, msg2);
  }
  /// The caller's deadline expired before the operation completed. Unlike
  /// Busy there is no point retrying under the same deadline.
  static Status DeadlineExceeded(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kDeadlineExceeded, msg, msg2);
  }

  bool ok() const { return code_ == kOk; }
  bool IsNotFound() const { return code() == kNotFound; }
  bool IsCorruption() const { return code() == kCorruption; }
  bool IsNotSupported() const { return code() == kNotSupported; }
  bool IsInvalidArgument() const { return code() == kInvalidArgument; }
  bool IsIOError() const { return code() == kIOError; }
  bool IsBusy() const { return code() == kBusy; }
  bool IsDeadlineExceeded() const { return code() == kDeadlineExceeded; }

  /// Human-readable representation, e.g. "NotFound: key missing".
  std::string ToString() const {
    if (code_ == kOk) return "OK";
    const char* type = "";
    switch (code()) {
      case kOk:
        type = "OK";
        break;
      case kNotFound:
        type = "NotFound: ";
        break;
      case kCorruption:
        type = "Corruption: ";
        break;
      case kNotSupported:
        type = "Not implemented: ";
        break;
      case kInvalidArgument:
        type = "Invalid argument: ";
        break;
      case kIOError:
        type = "IO error: ";
        break;
      case kBusy:
        type = "Busy: ";
        break;
      case kDeadlineExceeded:
        type = "Deadline exceeded: ";
        break;
    }
    return state_ == nullptr ? std::string(type) : type + *state_;
  }

 private:
  enum Code {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kNotSupported = 3,
    kInvalidArgument = 4,
    kIOError = 5,
    kBusy = 6,
    kDeadlineExceeded = 7,
  };

  Status(Code code, const Slice& msg, const Slice& msg2) : code_(code) {
    if (msg.empty() && msg2.empty()) return;
    auto text = std::make_shared<std::string>(msg.ToString());
    if (!msg2.empty()) {
      *text += ": ";
      *text += msg2.ToString();
    }
    state_ = std::move(text);
  }

  Code code() const { return code_; }

  Code code_ = kOk;
  // The message, when there is one. shared_ptr keeps Status copyable and
  // cheap to move; error paths are cold.
  std::shared_ptr<const std::string> state_;
};

}  // namespace leveldbpp

#endif  // LEVELDBPP_UTIL_STATUS_H_
