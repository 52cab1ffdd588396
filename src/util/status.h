// Typed error model shared by the storage and query layers.
//
// Nothing above the lowest layers throws across an API boundary: every
// way a request or an on-disk artifact can be wrong -- an out-of-range
// node id, a stale file with the wrong format version, a cursor that
// was already drained -- maps to a StatusCode, and fallible entry
// points return Result<T> (a value or a Status, never an exception).
// The sharded on-disk store needs the same vocabulary as the query
// layer, so the types live here, below both.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace inspector {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// The request itself is malformed: unknown operation, missing or
  /// ill-typed field, unparsable JSON, a file that is not in the
  /// expected format.
  kInvalidArgument,
  /// The request names something that does not exist: a page no node
  /// touched, a cursor id never issued (or issued by another session),
  /// an unknown session, a missing shard file.
  kNotFound,
  /// A node id outside [0, graph.nodes().size()).
  kOutOfRange,
  /// The graph cannot answer this query shape: e.g. a cyclic graph has
  /// no topological order, so flow and critical-path queries fail.
  kFailedPrecondition,
  /// The cursor was valid but has no pages left.
  kExhausted,
  /// An unexpected exception reached the API boundary (engine bug).
  kInternal,
  /// A transient failure: the operation may succeed if retried (an IO
  /// error mid-read, an injected fault), or the resource is currently
  /// quarantined. Retry policies act on this code and nothing else;
  /// every other code is permanent.
  kUnavailable,
  /// Stored bytes failed an integrity check: a block or whole-file
  /// checksum mismatch. Retrying will not help; the data on disk is
  /// damaged and fsck/repair is the remedy.
  kDataLoss,
};

/// Stable lower-snake names, used verbatim on the wire.
[[nodiscard]] constexpr const char* to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kExhausted:
      return "exhausted";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDataLoss:
      return "data_loss";
  }
  return "internal";
}

class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status Ok() { return {}; }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

  bool operator==(const Status&) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// An exception carrying a typed Status, for the few internal seams
/// (shard pinning inside query kernels) where errors must unwind
/// through code that cannot return Result<T>. It never crosses an API
/// boundary: the owning backend catches it and returns the Status.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.message()), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

/// A value or the Status explaining why there is none. Check ok()
/// first: value()/operator* on an error Result dereferences an empty
/// optional, which is undefined behavior.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (status_.ok()) {
      status_ = Status(StatusCode::kInternal, "ok status without a value");
    }
  }
  Result(StatusCode code, std::string message)
      : status_(code, std::move(message)) {}

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  [[nodiscard]] const T& value() const& { return *value_; }
  [[nodiscard]] T& value() & { return *value_; }
  [[nodiscard]] T&& value() && { return *std::move(value_); }

  [[nodiscard]] const T* operator->() const { return &*value_; }
  [[nodiscard]] const T& operator*() const& { return *value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace inspector
