#ifndef DURASSD_COMMON_STATUS_H_
#define DURASSD_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace durassd {

/// Error categories used across the library. Modeled after the
/// Status idiom common in storage engines: functions that can fail return a
/// Status (or StatusOr<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kCorruption,      ///< Checksum mismatch / torn page detected.
  kInvalidArgument,
  kIoError,         ///< Simulated device reported an error.
  kDeviceOffline,   ///< Operation issued while power is cut.
  kOutOfSpace,      ///< Device, dump area, or file system is full.
  kBusy,            ///< Queue full / resource temporarily unavailable.
  kDataLoss,        ///< Acknowledged data was lost (volatile cache).
  kResourceExhausted,  ///< Device permanently out of healthy resources
                       ///< (spare-block exhaustion); writes are rejected
                       ///< but reads still work. Distinct from kOutOfSpace,
                       ///< which is transient/logical fullness.
};

/// Return-value error type. Cheap to copy in the OK case (no allocation).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m = "not found") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status Corruption(std::string m = "corruption") {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status InvalidArgument(std::string m = "invalid argument") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status IoError(std::string m = "I/O error") {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status DeviceOffline(std::string m = "device offline") {
    return Status(StatusCode::kDeviceOffline, std::move(m));
  }
  static Status OutOfSpace(std::string m = "out of space") {
    return Status(StatusCode::kOutOfSpace, std::move(m));
  }
  static Status Busy(std::string m = "busy") {
    return Status(StatusCode::kBusy, std::move(m));
  }
  static Status DataLoss(std::string m = "data loss") {
    return Status(StatusCode::kDataLoss, std::move(m));
  }
  static Status ResourceExhausted(std::string m = "resource exhausted") {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsDeviceOffline() const { return code_ == StatusCode::kDeviceOffline; }
  bool IsOutOfSpace() const { return code_ == StatusCode::kOutOfSpace; }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }
  bool IsDataLoss() const { return code_ == StatusCode::kDataLoss; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value or an error Status. Minimal absl::StatusOr analogue.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status s) : status_(std::move(s)) {  // NOLINT: implicit by design
    assert(!status_.ok());
  }
  StatusOr(T value)  // NOLINT: implicit by design
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  T value_{};
};

#define DURASSD_RETURN_IF_ERROR(expr)        \
  do {                                       \
    ::durassd::Status _s = (expr);           \
    if (!_s.ok()) return _s;                 \
  } while (0)

}  // namespace durassd

#endif  // DURASSD_COMMON_STATUS_H_
