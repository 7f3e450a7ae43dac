#include "base/status.h"

#include <cstdio>
#include <cstdlib>

namespace xqp {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kIoError:
      return "I/O error";
    case StatusCode::kParseError:
      return "Parse error";
    case StatusCode::kStaticError:
      return "Static error";
    case StatusCode::kTypeError:
      return "Type error";
    case StatusCode::kDynamicError:
      return "Dynamic error";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kSnapshotCorrupt:
      return "Snapshot corrupt";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string out(StatusCodeToString(code()));
  out += ": ";
  out += message();
  return out;
}

}  // namespace xqp
