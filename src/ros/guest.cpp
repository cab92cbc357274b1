#include "ros/guest.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace mv::ros {

Status SysIface::stage(std::uint64_t off, const void* data,
                       std::uint64_t len) {
  if (off + len > scratch_size()) return err(Err::kNoMem, "scratch overflow");
  return mem_write(scratch_base() + off, data, len);
}

Status SysIface::unstage(std::uint64_t off, void* out, std::uint64_t len) {
  if (off + len > scratch_size()) return err(Err::kNoMem, "scratch overflow");
  return mem_read(scratch_base() + off, out, len);
}

std::vector<Result<std::uint64_t>> SysIface::syscall_batch(
    const std::vector<SysReq>& reqs) {
  std::vector<Result<std::uint64_t>> out;
  out.reserve(reqs.size());
  for (const SysReq& req : reqs) out.push_back(syscall(req.nr, req.args));
  return out;
}

Result<std::uint64_t> SysIface::mmap(std::uint64_t addr, std::uint64_t len,
                                     int prot, int flags) {
  return syscall(SysNr::kMmap,
                 {addr, len, static_cast<std::uint64_t>(prot),
                  static_cast<std::uint64_t>(flags), 0, 0});
}

Status SysIface::munmap(std::uint64_t addr, std::uint64_t len) {
  return syscall(SysNr::kMunmap, {addr, len, 0, 0, 0, 0}).status();
}

Status SysIface::mprotect(std::uint64_t addr, std::uint64_t len, int prot) {
  return syscall(SysNr::kMprotect,
                 {addr, len, static_cast<std::uint64_t>(prot), 0, 0, 0})
      .status();
}

Result<int> SysIface::open(const std::string& path, int flags) {
  MV_RETURN_IF_ERROR(stage(0, path.c_str(), path.size() + 1));
  MV_ASSIGN_OR_RETURN(
      const std::uint64_t fd,
      syscall(SysNr::kOpen, {scratch_base(), static_cast<std::uint64_t>(flags),
                             0, 0, 0, 0}));
  return static_cast<int>(fd);
}

Status SysIface::close(int fd) {
  return syscall(SysNr::kClose, {static_cast<std::uint64_t>(fd), 0, 0, 0, 0, 0})
      .status();
}

Result<std::uint64_t> SysIface::write(int fd, const void* data,
                                      std::uint64_t len) {
  // Large writes are staged through scratch in chunks, like stdio would.
  const auto* src = static_cast<const std::uint8_t*>(data);
  std::uint64_t total = 0;
  const std::uint64_t cap = scratch_size() / 2;
  while (total < len) {
    const std::uint64_t chunk = std::min(len - total, cap);
    MV_RETURN_IF_ERROR(stage(0, src + total, chunk));
    MV_ASSIGN_OR_RETURN(
        const std::uint64_t n,
        syscall(SysNr::kWrite,
                {static_cast<std::uint64_t>(fd), scratch_base(), chunk, 0, 0,
                 0}));
    total += n;
    if (n < chunk) break;
  }
  return total;
}

Result<std::uint64_t> SysIface::write_str(int fd, const std::string& s) {
  return write(fd, s.data(), s.size());
}

Result<std::uint64_t> SysIface::read(int fd, void* out, std::uint64_t len) {
  auto* dst = static_cast<std::uint8_t*>(out);
  std::uint64_t total = 0;
  const std::uint64_t cap = scratch_size() / 2;
  while (total < len) {
    const std::uint64_t chunk = std::min(len - total, cap);
    MV_ASSIGN_OR_RETURN(
        const std::uint64_t n,
        syscall(SysNr::kRead, {static_cast<std::uint64_t>(fd), scratch_base(),
                               chunk, 0, 0, 0}));
    if (n == 0) break;
    MV_RETURN_IF_ERROR(unstage(0, dst + total, n));
    total += n;
    if (n < chunk) break;
  }
  return total;
}

Result<Stat> SysIface::stat(const std::string& path) {
  MV_RETURN_IF_ERROR(stage(0, path.c_str(), path.size() + 1));
  const std::uint64_t buf_off = 512;
  MV_RETURN_IF_ERROR(syscall(SysNr::kStat,
                             {scratch_base(), scratch_base() + buf_off, 0, 0,
                              0, 0})
                         .status());
  Stat st;
  MV_RETURN_IF_ERROR(unstage(buf_off, &st, sizeof(st)));
  return st;
}

Result<std::string> SysIface::getcwd() {
  MV_ASSIGN_OR_RETURN(
      const std::uint64_t len,
      syscall(SysNr::kGetcwd, {scratch_base(), 1024, 0, 0, 0, 0}));
  std::string out(len, '\0');
  MV_RETURN_IF_ERROR(unstage(0, out.data(), len));
  return out;
}

Result<std::uint64_t> SysIface::getpid() {
  return syscall(SysNr::kGetpid, {0, 0, 0, 0, 0, 0});
}

Result<Rusage> SysIface::getrusage() {
  MV_RETURN_IF_ERROR(
      syscall(SysNr::kGetrusage, {0, scratch_base(), 0, 0, 0, 0}).status());
  Rusage ru;
  MV_RETURN_IF_ERROR(unstage(0, &ru, sizeof(ru)));
  return ru;
}

Status SysIface::setitimer(std::uint64_t interval_us, std::uint64_t value_us) {
  return syscall(SysNr::kSetitimer, {0, interval_us, value_us, 0, 0, 0})
      .status();
}

Result<int> SysIface::poll0() {
  MV_ASSIGN_OR_RETURN(const std::uint64_t r,
                      syscall(SysNr::kPoll, {0, 0, 0, 0, 0, 0}));
  return static_cast<int>(r);
}

void SysIface::exit_group(int code) {
  (void)syscall(SysNr::kExitGroup,
                {static_cast<std::uint64_t>(code), 0, 0, 0, 0, 0});
  throw GuestExit{code};
}

Result<std::uint64_t> SysIface::printf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return write_str(1, out);
}

}  // namespace mv::ros
