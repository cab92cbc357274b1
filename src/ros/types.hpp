#pragma once

// Linux ABI surface constants. Values mirror x86-64 Linux so traces and
// histograms read like the paper's (Figs 11/12 are keyed by syscall name).

#include <array>
#include <cstdint>
#include <string>

namespace mv::ros {

enum class SysNr : std::uint32_t {
  kRead = 0,
  kWrite = 1,
  kOpen = 2,
  kClose = 3,
  kStat = 4,
  kFstat = 5,
  kPoll = 7,
  kLseek = 8,
  kMmap = 9,
  kMprotect = 10,
  kMunmap = 11,
  kBrk = 12,
  kRtSigaction = 13,
  kRtSigreturn = 15,
  kSchedYield = 24,
  kDup = 32,
  kNanosleep = 35,
  kSetitimer = 38,
  kGetpid = 39,
  kClone = 56,
  kFork = 57,
  kExecve = 59,
  kGetcwd = 79,
  kChdir = 80,
  kMkdir = 83,
  kGetrusage = 98,
  kFutex = 202,
  kExitGroup = 231,
  kOpenat = 257,
  kCount_ = 300,
};

const char* sysnr_name(SysNr nr) noexcept;

// One raw system call request, as staged in a submission batch. The HRT
// forwarding path (the Nautilus stub, the event-channel submission ring)
// carries spans of these; a single call is a batch of one.
struct SysReq {
  SysNr nr{};
  std::array<std::uint64_t, 6> args{};
};

// --- mmap ------------------------------------------------------------------
inline constexpr int kProtNone = 0;
inline constexpr int kProtRead = 1;
inline constexpr int kProtWrite = 2;
inline constexpr int kProtExec = 4;

inline constexpr int kMapShared = 0x01;
inline constexpr int kMapPrivate = 0x02;
inline constexpr int kMapFixed = 0x10;
inline constexpr int kMapAnonymous = 0x20;

// --- open ------------------------------------------------------------------
inline constexpr int kORdOnly = 0;
inline constexpr int kOWrOnly = 1;
inline constexpr int kORdWr = 2;
inline constexpr int kOCreat = 0x40;
inline constexpr int kOTrunc = 0x200;
inline constexpr int kOAppend = 0x400;

// --- signals -----------------------------------------------------------------
inline constexpr int kSigSegv = 11;
inline constexpr int kSigAlrm = 14;
inline constexpr int kSigChld = 17;
inline constexpr int kSigUsr1 = 10;
inline constexpr int kSigUsr2 = 12;
inline constexpr int kNumSignals = 64;

// --- lseek whence ------------------------------------------------------------
inline constexpr int kSeekSet = 0;
inline constexpr int kSeekCur = 1;
inline constexpr int kSeekEnd = 2;

// stat buffer (subset).
struct Stat {
  std::uint64_t size = 0;
  std::uint32_t mode = 0;  // 1 = regular file, 2 = directory
  std::uint64_t ino = 0;
};

struct TimeVal {
  std::uint64_t sec = 0;
  std::uint64_t usec = 0;
};

struct Rusage {
  TimeVal utime;
  TimeVal stime;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t min_flt = 0;
  std::uint64_t maj_flt = 0;
  std::uint64_t nvcsw = 0;   // voluntary context switches
  std::uint64_t nivcsw = 0;  // involuntary
};

}  // namespace mv::ros
