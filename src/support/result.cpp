#include "support/result.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/flightrec.hpp"
#include "support/trace.hpp"

namespace mv {

void check_failed(const char* expr, const char* file, int line,
                  const std::string& detail) {
  // Stamp the abort with where the simulation actually was: the core the
  // scheduler says is executing, that core's simulated cycle count, and the
  // tenant whose request was in flight (0 = the host tenant).
  FlightRecorder& recorder = FlightRecorder::instance();
  const unsigned core = recorder.current_core();
  const std::uint64_t cycle = Tracer::instance().now(core);
  std::fprintf(
      stderr,
      "MV_CHECK failed at %s:%d [core %u @ cycle %llu tenant %d]: %s%s%s\n",
      file, line, core, static_cast<unsigned long long>(cycle),
      recorder.current_tenant(), expr, detail.empty() ? "" : " — ",
      detail.c_str());
  // Post-mortem context: recent structured events plus live component state.
  // dump_to_stderr() is reentrancy-guarded, so a state provider that itself
  // fails an MV_CHECK mid-dump falls straight through to abort().
  recorder.dump_to_stderr(expr);
  std::fflush(stderr);
  std::abort();
}

const char* err_name(Err e) noexcept {
  switch (e) {
    case Err::kOk: return "OK";
    case Err::kPerm: return "EPERM";
    case Err::kNoEnt: return "ENOENT";
    case Err::kIntr: return "EINTR";
    case Err::kIo: return "EIO";
    case Err::kBadFd: return "EBADF";
    case Err::kAgain: return "EAGAIN";
    case Err::kNoMem: return "ENOMEM";
    case Err::kAccess: return "EACCES";
    case Err::kFault: return "EFAULT";
    case Err::kExist: return "EEXIST";
    case Err::kNotDir: return "ENOTDIR";
    case Err::kIsDir: return "EISDIR";
    case Err::kInval: return "EINVAL";
    case Err::kMFile: return "EMFILE";
    case Err::kNoSpc: return "ENOSPC";
    case Err::kRange: return "ERANGE";
    case Err::kNoSys: return "ENOSYS";
    case Err::kBadAddr: return "BAD_ADDR";
    case Err::kPageFault: return "PAGE_FAULT";
    case Err::kProtocol: return "PROTOCOL";
    case Err::kState: return "BAD_STATE";
    case Err::kLimit: return "LIMIT";
    case Err::kParse: return "PARSE";
    case Err::kUnsupported: return "UNSUPPORTED";
  }
  return "UNKNOWN";
}

bool err_code_is_known(std::uint64_t code) noexcept {
  switch (static_cast<Err>(code)) {
    case Err::kOk:
    case Err::kPerm:
    case Err::kNoEnt:
    case Err::kIntr:
    case Err::kIo:
    case Err::kBadFd:
    case Err::kAgain:
    case Err::kNoMem:
    case Err::kAccess:
    case Err::kFault:
    case Err::kExist:
    case Err::kNotDir:
    case Err::kIsDir:
    case Err::kInval:
    case Err::kMFile:
    case Err::kNoSpc:
    case Err::kRange:
    case Err::kNoSys:
    case Err::kBadAddr:
    case Err::kPageFault:
    case Err::kProtocol:
    case Err::kState:
    case Err::kLimit:
    case Err::kParse:
    case Err::kUnsupported:
      return code == static_cast<std::uint64_t>(static_cast<Err>(code));
  }
  return false;
}

std::string Status::to_string() const {
  std::string s = err_name(code_);
  if (!detail_.empty()) {
    s += ": ";
    s += detail_;
  }
  return s;
}

}  // namespace mv
