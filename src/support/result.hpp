#pragma once

// Result<T> / Status: lightweight expected-style error propagation used across
// the whole stack. We avoid exceptions on simulated-guest paths because guest
// errors (bad addresses, EFAULT, ...) are ordinary control flow there.

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace mv {

// Error codes shared across the stack. Values < 0x100 mirror errno where a
// Linux equivalent exists so the ROS syscall layer can pass them through.
enum class Err : int {
  kOk = 0,
  kPerm = 1,          // EPERM
  kNoEnt = 2,         // ENOENT
  kIntr = 4,          // EINTR
  kIo = 5,            // EIO
  kBadFd = 9,         // EBADF
  kAgain = 11,        // EAGAIN
  kNoMem = 12,        // ENOMEM
  kAccess = 13,       // EACCES
  kFault = 14,        // EFAULT
  kExist = 17,        // EEXIST
  kNotDir = 20,       // ENOTDIR
  kIsDir = 21,        // EISDIR
  kInval = 22,        // EINVAL
  kMFile = 24,        // EMFILE
  kNoSpc = 28,        // ENOSPC
  kRange = 34,        // ERANGE
  kNoSys = 38,        // ENOSYS
  // Simulator-internal conditions (no errno analogue).
  kBadAddr = 0x100,   // non-canonical or unmapped simulated address
  kPageFault = 0x101, // translation raised a fault that must be serviced
  kProtocol = 0x102,  // event-channel protocol violation
  kState = 0x103,     // object used in a state that forbids the operation
  kLimit = 0x104,     // resource limit hit (cores, fds, ...)
  kParse = 0x105,     // config / image / source parse failure
  kUnsupported = 0x106,
};

const char* err_name(Err e) noexcept;

// Whether a raw status word (e.g. read back from a shared protocol page)
// names a known Err value. Untrusted status words must pass this before
// being cast to Err — an arbitrary integer would fabricate an invalid enum.
bool err_code_is_known(std::uint64_t code) noexcept;

// A status is an error code plus an optional human-readable detail message.
class Status {
 public:
  Status() noexcept : code_(Err::kOk) {}
  explicit Status(Err code, std::string detail = {})
      : code_(code), detail_(std::move(detail)) {}

  static Status ok() noexcept { return Status{}; }

  [[nodiscard]] bool is_ok() const noexcept { return code_ == Err::kOk; }

  [[nodiscard]] Err code() const noexcept { return code_; }
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }
  [[nodiscard]] std::string to_string() const;

 private:
  Err code_;
  std::string detail_;
};

inline Status err(Err code, std::string detail = {}) {
  return Status{code, std::move(detail)};
}

// Result<T>: either a value or a Status carrying a non-OK code.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}            // NOLINT(implicit)
  Result(Status status) : v_(std::move(status)) {      // NOLINT(implicit)
    assert(!std::get<Status>(v_).is_ok() && "Result from OK status");
  }
  Result(Err code, std::string detail = {})
      : v_(Status{code, std::move(detail)}) {}

  [[nodiscard]] bool is_ok() const noexcept {
    return std::holds_alternative<T>(v_);
  }
  explicit operator bool() const noexcept { return is_ok(); }

  [[nodiscard]] T& value() & {
    assert(is_ok());
    return std::get<T>(v_);
  }
  [[nodiscard]] const T& value() const& {
    assert(is_ok());
    return std::get<T>(v_);
  }
  [[nodiscard]] T&& value() && {
    assert(is_ok());
    return std::get<T>(std::move(v_));
  }
  [[nodiscard]] T value_or(T fallback) const {
    return is_ok() ? std::get<T>(v_) : std::move(fallback);
  }

  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(v_);
  }
  [[nodiscard]] Err code() const noexcept {
    return is_ok() ? Err::kOk : std::get<Status>(v_).code();
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  std::variant<T, Status> v_;
};

// Abort path for MV_CHECK / MV_CHECK_OK / MV_FAIL: prints the failing
// expression and detail to stderr together with the executing simulated core
// and its current cycle, dumps the flight recorder (recent per-core events,
// component state snapshots), then aborts. Never compiled out.
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& detail);

// Uniform Status extraction for MV_CHECK_OK (works on Status and Result<T>).
inline const Status& as_status(const Status& s) noexcept { return s; }
template <typename T>
Status as_status(const Result<T>& r) {
  return r.status();
}

}  // namespace mv

// Hard invariant checks that survive NDEBUG. Use these instead of assert()
// wherever a violated condition would otherwise let a Release build continue
// on garbage data (e.g. a failed guest-memory access returning an
// uninitialized value). `cond` is evaluated exactly once in all build types.
#define MV_CHECK(cond, detail)                                        \
  do {                                                                \
    if (!(cond)) ::mv::check_failed(#cond, __FILE__, __LINE__, detail); \
  } while (0)

// Unconditional failure: aborts through the same core/cycle-stamped,
// flight-recorder-dumping path as a failed MV_CHECK.
#define MV_FAIL(detail) ::mv::check_failed("MV_FAIL", __FILE__, __LINE__, detail)

// Check that a Status / Result expression is OK; aborts with its message.
#define MV_CHECK_OK(expr)                                            \
  do {                                                               \
    const auto& mv_check_ref__ = (expr);                             \
    if (!mv_check_ref__.is_ok()) {                                   \
      ::mv::check_failed(#expr, __FILE__, __LINE__,                  \
                         ::mv::as_status(mv_check_ref__).to_string()); \
    }                                                                \
  } while (0)

// Propagate a non-OK Status from an expression producing Status.
#define MV_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::mv::Status mv_status__ = (expr);            \
    if (!mv_status__.is_ok()) return mv_status__; \
  } while (0)

// Bind a Result value or propagate its Status.
#define MV_CONCAT_INNER(a, b) a##b
#define MV_CONCAT(a, b) MV_CONCAT_INNER(a, b)
#define MV_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.is_ok()) return tmp.status();         \
  lhs = std::move(tmp).value()
#define MV_ASSIGN_OR_RETURN(lhs, expr) \
  MV_ASSIGN_OR_RETURN_IMPL(MV_CONCAT(mv_result__, __LINE__), lhs, expr)
