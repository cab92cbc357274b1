#include <algorithm>
#include <cstring>

#include "ros/linux.hpp"
#include "support/strings.hpp"

// Individual syscall implementations. Data-bearing calls move bytes through
// the core's memory path so user pages demand-fault exactly where a real
// kernel's copy_{from,to}_user would make them.

namespace mv::ros {

using hw::kPageSize;

Result<std::uint64_t> LinuxSim::copy_path_from_user(Thread& t,
                                                    std::uint64_t vaddr,
                                                    std::string* out) {
  out->clear();
  hw::Core& core = core_of(t);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    char c = 0;
    MV_RETURN_IF_ERROR(core.mem_read(vaddr + i, &c, 1));
    if (c == '\0') return i;
    out->push_back(c);
  }
  return err(Err::kInval, "path too long");
}

Result<std::uint64_t> LinuxSim::sys_read(Thread& t,
                                         std::array<std::uint64_t, 6> args) {
  Process& proc = *t.proc;
  hw::Core& core = core_of(t);
  const int fd = static_cast<int>(args[0]);
  const std::uint64_t buf = args[1];
  const std::uint64_t len = args[2];
  core.charge(600 + len / 4);

  MV_ASSIGN_OR_RETURN(OpenFile* const file, proc.fds.get(fd));
  if (file->kind == OpenFile::Kind::kStdIn) {
    const std::uint64_t avail = proc.stdin_text.size() - proc.stdin_off;
    const std::uint64_t n = std::min(len, avail);
    MV_RETURN_IF_ERROR(
        core.mem_write(buf, proc.stdin_text.data() + proc.stdin_off, n));
    proc.stdin_off += n;
    return n;
  }
  if (file->node == nullptr || file->node->is_dir) return err(Err::kIsDir);
  const std::uint64_t avail =
      file->offset < file->node->data.size()
          ? file->node->data.size() - file->offset
          : 0;
  const std::uint64_t n = std::min(len, avail);
  if (n > 0) {
    MV_RETURN_IF_ERROR(
        core.mem_write(buf, file->node->data.data() + file->offset, n));
    file->offset += n;
  }
  return n;
}

Result<std::uint64_t> LinuxSim::sys_write(Thread& t,
                                          std::array<std::uint64_t, 6> args) {
  Process& proc = *t.proc;
  hw::Core& core = core_of(t);
  const int fd = static_cast<int>(args[0]);
  const std::uint64_t buf = args[1];
  const std::uint64_t len = args[2];
  core.charge(600 + len / 4);

  std::string data(len, '\0');
  MV_RETURN_IF_ERROR(core.mem_read(buf, data.data(), len));

  MV_ASSIGN_OR_RETURN(OpenFile* const file, proc.fds.get(fd));
  switch (file->kind) {
    case OpenFile::Kind::kStdOut:
      proc.stdout_text += data;
      return len;
    case OpenFile::Kind::kStdErr:
      proc.stderr_text += data;
      return len;
    case OpenFile::Kind::kStdIn:
      return err(Err::kBadFd, "write to stdin");
    case OpenFile::Kind::kFile: {
      if (file->node == nullptr || file->node->is_dir) return err(Err::kIsDir);
      auto& bytes = file->node->data;
      if ((file->flags & kOAppend) != 0) file->offset = bytes.size();
      if (file->offset + len > bytes.size()) bytes.resize(file->offset + len);
      std::memcpy(bytes.data() + file->offset, data.data(), len);
      file->offset += len;
      return len;
    }
  }
  return err(Err::kBadFd);
}

Result<std::uint64_t> LinuxSim::sys_open(Thread& t,
                                         std::array<std::uint64_t, 6> args) {
  Process& proc = *t.proc;
  core_of(t).charge(1800);
  std::string path;
  MV_RETURN_IF_ERROR(copy_path_from_user(t, args[0], &path).status());
  const int flags = static_cast<int>(args[1]);
  auto node = fs_.resolve(proc.cwd, path, (flags & kOCreat) != 0,
                          (flags & kOTrunc) != 0);
  if (!node) return node.status();
  OpenFile file;
  file.kind = OpenFile::Kind::kFile;
  file.node = *node;
  file.flags = flags;
  MV_ASSIGN_OR_RETURN(const int fd, proc.fds.install(file));
  return static_cast<std::uint64_t>(fd);
}

Result<std::uint64_t> LinuxSim::sys_close(Thread& t,
                                          std::array<std::uint64_t, 6> args) {
  core_of(t).charge(900);
  MV_RETURN_IF_ERROR(t.proc->fds.close(static_cast<int>(args[0])));
  return std::uint64_t{0};
}

Result<std::uint64_t> LinuxSim::sys_stat(Thread& t,
                                         std::array<std::uint64_t, 6> args) {
  core_of(t).charge(1200);
  std::string path;
  MV_RETURN_IF_ERROR(copy_path_from_user(t, args[0], &path).status());
  MV_ASSIGN_OR_RETURN(const Stat st, fs_.stat(t.proc->cwd, path));
  MV_RETURN_IF_ERROR(core_of(t).mem_write(args[1], &st, sizeof(st)));
  return std::uint64_t{0};
}

Result<std::uint64_t> LinuxSim::sys_lseek(Thread& t,
                                          std::array<std::uint64_t, 6> args) {
  core_of(t).charge(500);
  MV_ASSIGN_OR_RETURN(OpenFile* const file,
                      t.proc->fds.get(static_cast<int>(args[0])));
  if (file->node == nullptr) return err(Err::kBadFd, "lseek on stream");
  const auto off = static_cast<std::int64_t>(args[1]);
  const int whence = static_cast<int>(args[2]);
  std::int64_t base = 0;
  if (whence == kSeekCur) base = static_cast<std::int64_t>(file->offset);
  if (whence == kSeekEnd) base = static_cast<std::int64_t>(file->node->data.size());
  const std::int64_t target = base + off;
  if (target < 0) return err(Err::kInval, "lseek before start");
  file->offset = static_cast<std::uint64_t>(target);
  return file->offset;
}

Result<std::uint64_t> LinuxSim::sys_mmap(Thread& t,
                                         std::array<std::uint64_t, 6> args) {
  Process& proc = *t.proc;
  hw::Core& core = core_of(t);
  const std::uint64_t addr = args[0];
  const std::uint64_t len = args[1];
  const int prot = static_cast<int>(args[2]);
  const int flags = static_cast<int>(args[3]);
  core.charge(1400);
  if (virtualized()) {
    core.charge(hw::costs().vmexit + hw::costs().vmentry);  // shadow PT sync
  }
  if ((flags & kMapAnonymous) == 0) {
    // File-backed: read the backing from the fd for private demand-loading.
    MV_ASSIGN_OR_RETURN(OpenFile* const file,
                        proc.fds.get(static_cast<int>(args[4])));
    if (file->node == nullptr) return err(Err::kBadFd, "mmap stream");
    std::vector<std::uint8_t> backing = file->node->data;
    return proc.as->mmap(addr, len, prot, flags, "file", std::move(backing));
  }
  return proc.as->mmap(addr, len, prot, flags);
}

Result<std::uint64_t> LinuxSim::sys_mprotect(
    Thread& t, std::array<std::uint64_t, 6> args) {
  hw::Core& core = core_of(t);
  core.charge(900 + 120 * (hw::page_ceil(args[1]) / kPageSize));
  if (virtualized()) {
    core.charge(hw::costs().vmexit + hw::costs().vmentry);
  }
  MV_RETURN_IF_ERROR(t.proc->as->mprotect(t.core, args[0], args[1],
                                          static_cast<int>(args[2])));
  return std::uint64_t{0};
}

Result<std::uint64_t> LinuxSim::sys_munmap(Thread& t,
                                           std::array<std::uint64_t, 6> args) {
  hw::Core& core = core_of(t);
  core.charge(1000 + 80 * (hw::page_ceil(args[1]) / kPageSize));
  if (virtualized()) {
    core.charge(hw::costs().vmexit + hw::costs().vmentry);
  }
  MV_RETURN_IF_ERROR(
      t.proc->as->munmap(args[0], args[1], static_cast<int>(t.core)));
  return std::uint64_t{0};
}

Result<std::uint64_t> LinuxSim::sys_brk(Thread& t,
                                        std::array<std::uint64_t, 6> args) {
  core_of(t).charge(700);
  return t.proc->as->brk(args[0], static_cast<int>(t.core));
}

Result<std::uint64_t> LinuxSim::sys_getcwd(Thread& t,
                                           std::array<std::uint64_t, 6> args) {
  core_of(t).charge(800);
  const std::string& cwd = t.proc->cwd;
  if (cwd.size() + 1 > args[1]) return err(Err::kRange, "getcwd buffer");
  MV_RETURN_IF_ERROR(core_of(t).mem_write(args[0], cwd.c_str(), cwd.size() + 1));
  return cwd.size();
}

Result<std::uint64_t> LinuxSim::sys_getrusage(
    Thread& t, std::array<std::uint64_t, 6> args) {
  Process& proc = *t.proc;
  core_of(t).charge(600);
  Rusage ru;
  const auto to_tv = [](std::uint64_t cycles) {
    const auto us = static_cast<std::uint64_t>(cycles_to_us(cycles));
    return TimeVal{us / 1000000, us % 1000000};
  };
  ru.stime = to_tv(proc.stime_cycles);
  ru.utime = to_tv(proc.utime_cycles);
  ru.max_rss_kb = proc.as->max_resident_pages() * kPageSize / 1024;
  ru.min_flt = proc.as->minor_faults();
  ru.maj_flt = proc.as->major_faults();
  ru.nvcsw = proc.nvcsw;
  ru.nivcsw = proc.nivcsw;
  MV_RETURN_IF_ERROR(core_of(t).mem_write(args[1], &ru, sizeof(ru)));
  return std::uint64_t{0};
}

Result<std::uint64_t> LinuxSim::sys_futex(Thread& t,
                                          std::array<std::uint64_t, 6> args) {
  // FUTEX_WAIT (op 0): block while *uaddr == val. FUTEX_WAKE (op 1): wake up
  // to val waiters. Enough for glibc-style join/mutex behaviour.
  Process& proc = *t.proc;
  hw::Core& core = core_of(t);
  core.charge(900);
  const std::uint64_t uaddr = args[0];
  const int op = static_cast<int>(args[1]);
  const std::uint32_t val = static_cast<std::uint32_t>(args[2]);
  if (op == 0) {  // WAIT
    std::uint32_t cur = 0;
    MV_RETURN_IF_ERROR(core.mem_read(uaddr, &cur, sizeof(cur)));
    if (cur != val) return err(Err::kAgain, "futex value changed");
    futex_waiters_[uaddr].push_back(t.task);
    ++proc.nvcsw;
    core.charge(hw::costs().ros_context_switch);
    sched_->block();
    return std::uint64_t{0};
  }
  if (op == 1) {  // WAKE
    auto it = futex_waiters_.find(uaddr);
    if (it == futex_waiters_.end()) return std::uint64_t{0};
    std::uint64_t woken = 0;
    while (!it->second.empty() && woken < val) {
      sched_->unblock(it->second.back());
      it->second.pop_back();
      ++woken;
    }
    if (it->second.empty()) futex_waiters_.erase(it);
    return woken;
  }
  return err(Err::kNoSys, "futex op");
}

}  // namespace mv::ros
