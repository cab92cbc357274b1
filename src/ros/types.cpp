#include "ros/types.hpp"

namespace mv::ros {

const char* sysnr_name(SysNr nr) noexcept {
  switch (nr) {
    case SysNr::kRead: return "read";
    case SysNr::kWrite: return "write";
    case SysNr::kOpen: return "open";
    case SysNr::kClose: return "close";
    case SysNr::kStat: return "stat";
    case SysNr::kFstat: return "fstat";
    case SysNr::kPoll: return "poll";
    case SysNr::kLseek: return "lseek";
    case SysNr::kMmap: return "mmap";
    case SysNr::kMprotect: return "mprotect";
    case SysNr::kMunmap: return "munmap";
    case SysNr::kBrk: return "brk";
    case SysNr::kRtSigaction: return "rt_sigaction";
    case SysNr::kRtSigreturn: return "rt_sigreturn";
    case SysNr::kSchedYield: return "sched_yield";
    case SysNr::kDup: return "dup";
    case SysNr::kNanosleep: return "nanosleep";
    case SysNr::kSetitimer: return "setitimer";
    case SysNr::kGetpid: return "getpid";
    case SysNr::kClone: return "clone";
    case SysNr::kFork: return "fork";
    case SysNr::kExecve: return "execve";
    case SysNr::kGetcwd: return "getcwd";
    case SysNr::kChdir: return "chdir";
    case SysNr::kMkdir: return "mkdir";
    case SysNr::kGetrusage: return "getrusage";
    case SysNr::kFutex: return "futex";
    case SysNr::kExitGroup: return "exit_group";
    case SysNr::kOpenat: return "openat";
    case SysNr::kCount_: break;
  }
  return "?";
}

}  // namespace mv::ros
