#include "common/status.h"

namespace durassd {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kDeviceOffline:
      return "DeviceOffline";
    case StatusCode::kOutOfSpace:
      return "OutOfSpace";
    case StatusCode::kBusy:
      return "Busy";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace durassd
