// LinuxSim tests: filesystem, fds, demand paging + zero-page COW, mprotect
// write barriers + SIGSEGV delivery, syscall accounting, threads/futex,
// itimers, and the vdso fast paths.

#include <gtest/gtest.h>

#include "ros/fs.hpp"
#include "ros/linux.hpp"

namespace mv::ros {
namespace {

// --- FileSystem ----------------------------------------------------------------

TEST(FileSystemTest, NormalizePaths) {
  EXPECT_EQ(FileSystem::normalize("/", "a/b"), "/a/b");
  EXPECT_EQ(FileSystem::normalize("/x", "a"), "/x/a");
  EXPECT_EQ(FileSystem::normalize("/x", "/a"), "/a");
  EXPECT_EQ(FileSystem::normalize("/x/y", ".."), "/x");
  EXPECT_EQ(FileSystem::normalize("/", "../.."), "/");
  EXPECT_EQ(FileSystem::normalize("/a", "./b/../c"), "/a/c");
}

TEST(FileSystemTest, MkdirWriteReadStat) {
  FileSystem fs;
  ASSERT_TRUE(fs.mkdir("/", "dir").is_ok());
  ASSERT_TRUE(fs.write_file("/dir/f.txt", "hello").is_ok());
  auto content = fs.read_file("/dir/f.txt");
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(*content, "hello");
  auto st = fs.stat("/", "dir/f.txt");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 5u);
  EXPECT_EQ(st->mode, 1u);
  auto dirst = fs.stat("/", "dir");
  ASSERT_TRUE(dirst.is_ok());
  EXPECT_EQ(dirst->mode, 2u);
}

TEST(FileSystemTest, UnlinkAndErrors) {
  FileSystem fs;
  ASSERT_TRUE(fs.write_file("/f", "x").is_ok());
  EXPECT_TRUE(fs.unlink("/", "f").is_ok());
  EXPECT_EQ(fs.unlink("/", "f").code(), Err::kNoEnt);
  EXPECT_EQ(fs.stat("/", "nope").code(), Err::kNoEnt);
  ASSERT_TRUE(fs.mkdir("/", "d").is_ok());
  EXPECT_EQ(fs.unlink("/", "d").code(), Err::kIsDir);
  EXPECT_EQ(fs.mkdir("/", "d").code(), Err::kExist);
}

TEST(FdTableTest, LowestUnusedFd) {
  FdTable fds;
  OpenFile file;
  auto fd = fds.install(file);
  ASSERT_TRUE(fd.is_ok());
  EXPECT_EQ(*fd, 3);  // 0/1/2 are the standard streams
  ASSERT_TRUE(fds.close(*fd).is_ok());
  auto fd2 = fds.install(file);
  EXPECT_EQ(*fd2, 3);  // reused
  ASSERT_TRUE(fds.close(0).is_ok());
  auto fd0 = fds.install(file);
  EXPECT_EQ(*fd0, 0);
  EXPECT_EQ(fds.close(99).code(), Err::kBadFd);
}

// --- kernel fixture --------------------------------------------------------------

class LinuxTest : public ::testing::Test {
 protected:
  LinuxTest()
      : machine_(hw::MachineConfig{1, 2, 1 << 26}),
        linux_(machine_, sched_, LinuxSim::Config{{0}, false}) {}

  // Run one guest program to completion and return the exit code.
  int run(std::function<int(SysIface&)> guest) {
    auto proc = linux_.spawn("test", std::move(guest));
    EXPECT_TRUE(proc.is_ok());
    proc_ = *proc;
    const Status s = linux_.run_all();
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    return proc_->exit_code;
  }

  hw::Machine machine_;
  Sched sched_;
  LinuxSim linux_;
  Process* proc_ = nullptr;
};

TEST_F(LinuxTest, HelloWorldWrite) {
  EXPECT_EQ(run([](SysIface& sys) {
    auto n = sys.write_str(1, "hello, world\n");
    EXPECT_TRUE(n.is_ok());
    EXPECT_EQ(*n, 13u);
    return 0;
  }), 0);
  EXPECT_EQ(proc_->stdout_text, "hello, world\n");
  EXPECT_GE(proc_->syscall_count(SysNr::kWrite), 1u);
}

TEST_F(LinuxTest, ExitGroupCode) {
  EXPECT_EQ(run([](SysIface& sys) -> int {
    sys.exit_group(42);
  }), 42);
  EXPECT_TRUE(proc_->exited);
}

TEST_F(LinuxTest, FileRoundTripThroughSyscalls) {
  run([](SysIface& sys) {
    auto fd = sys.open("/data.bin", kOCreat | kORdWr);
    EXPECT_TRUE(fd.is_ok());
    std::string payload(10000, 'q');
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<char>('a' + i % 26);
    }
    EXPECT_EQ(sys.write(*fd, payload.data(), payload.size()).value(),
              payload.size());
    EXPECT_TRUE(sys.close(*fd).is_ok());

    auto rfd = sys.open("/data.bin", kORdOnly);
    EXPECT_TRUE(rfd.is_ok());
    std::string out(payload.size(), 0);
    EXPECT_EQ(sys.read(*rfd, out.data(), out.size()).value(), payload.size());
    EXPECT_EQ(out, payload);
    auto st = sys.stat("/data.bin");
    EXPECT_TRUE(st.is_ok());
    EXPECT_EQ(st->size, payload.size());
    return 0;
  });
}

TEST_F(LinuxTest, MmapDemandPagingCountsFaults) {
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, 16 * hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    EXPECT_TRUE(addr.is_ok());
    // No faults yet: mapping is lazy.
    std::uint64_t x = 7;
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(
          sys.mem_write(*addr + i * hw::kPageSize, &x, sizeof(x)).is_ok());
    }
    return 0;
  });
  EXPECT_EQ(proc_->as->minor_faults(), 16u);
  EXPECT_EQ(proc_->as->resident_pages(), 16u);
}

TEST_F(LinuxTest, ZeroPageCowSemantics) {
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    // Read first: maps the shared zero page.
    std::uint64_t v = 123;
    EXPECT_TRUE(sys.mem_read(*addr, &v, sizeof(v)).is_ok());
    EXPECT_EQ(v, 0u);
    // Write: COW break to a private frame.
    v = 0x1122334455667788ull;
    EXPECT_TRUE(sys.mem_write(*addr, &v, sizeof(v)).is_ok());
    std::uint64_t back = 0;
    EXPECT_TRUE(sys.mem_read(*addr, &back, sizeof(back)).is_ok());
    EXPECT_EQ(back, v);
    return 0;
  });
  // One fault for the zero-page map, one for the COW break.
  EXPECT_EQ(proc_->as->minor_faults(), 2u);
}

TEST_F(LinuxTest, MprotectWriteBarrierDeliversSigsegv) {
  // The GC-barrier pattern: protect a page, install a SIGSEGV handler that
  // unprotects it, write, observe handler ran and write succeeded.
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    std::uint64_t v = 1;
    EXPECT_TRUE(sys.mem_write(*addr, &v, sizeof(v)).is_ok());

    static int handler_hits;
    handler_hits = 0;
    EXPECT_TRUE(sys.sigaction(
        kSigSegv,
        [](int sig, std::uint64_t fault_addr, SysIface& hsys) {
          ++handler_hits;
          EXPECT_EQ(sig, kSigSegv);
          EXPECT_TRUE(hsys.mprotect(hw::page_floor(fault_addr), hw::kPageSize,
                                    kProtRead | kProtWrite)
                          .is_ok());
        }).is_ok());
    EXPECT_TRUE(sys.mprotect(*addr, hw::kPageSize, kProtRead).is_ok());
    v = 2;
    EXPECT_TRUE(sys.mem_write(*addr, &v, sizeof(v)).is_ok());
    EXPECT_EQ(handler_hits, 1);
    return 0;
  });
  EXPECT_GE(proc_->syscall_count(SysNr::kRtSigreturn), 1u);
  EXPECT_GE(proc_->syscall_count(SysNr::kMprotect), 2u);
  EXPECT_EQ(proc_->signals_delivered, 1u);
}

TEST_F(LinuxTest, UnhandledSigsegvKillsProcess) {
  run([](SysIface& sys) {
    std::uint64_t v = 0;
    // Touch an unmapped address with no handler installed.
    (void)sys.mem_read(0x13370000, &v, sizeof(v));
    return 0;
  });
  EXPECT_TRUE(proc_->killed_by_signal);
  EXPECT_EQ(proc_->fatal_signal, kSigSegv);
}

TEST_F(LinuxTest, MunmapReleasesMemory) {
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, 8 * hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    std::uint64_t x = 1;
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(
          sys.mem_write(*addr + i * hw::kPageSize, &x, sizeof(x)).is_ok());
    }
    EXPECT_TRUE(sys.munmap(*addr, 8 * hw::kPageSize).is_ok());
    // The range is gone: a touch now SIGSEGVs (handler keeps us alive).
    EXPECT_TRUE(sys.sigaction(kSigSegv,
                              [](int, std::uint64_t, SysIface&) {}).is_ok());
    EXPECT_FALSE(sys.mem_write(*addr, &x, sizeof(x)).is_ok());
    return 0;
  });
}

TEST_F(LinuxTest, MprotectAndMunmapWalkEachLeafOnce) {
  // Host work, counted: an mprotect or munmap of 64 present pages in one
  // page table reads the three tables above it and each leaf once, and
  // stores each edited leaf back, 3 + 64 + 64 page-map lookups. Another walk
  // per page (a lookup, then an edit from the root) reads four or five
  // entries more for each page.
  constexpr std::uint64_t kPages = 64;
  hw::PhysMem& mem = machine_.mem();
  std::uint64_t protect_lookups = 0;
  std::uint64_t unmap_lookups = 0;
  run([&](SysIface& sys) {
    auto addr = sys.mmap(0, kPages * hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    EXPECT_TRUE(addr.is_ok());
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < kPages; ++i) {
      EXPECT_TRUE(
          sys.mem_write(*addr + i * hw::kPageSize, &x, sizeof(x)).is_ok());
    }
    std::uint64_t before = mem.page_map_lookups();
    EXPECT_TRUE(sys.mprotect(*addr, kPages * hw::kPageSize, kProtRead).is_ok());
    protect_lookups = mem.page_map_lookups() - before;
    before = mem.page_map_lookups();
    EXPECT_TRUE(sys.munmap(*addr, kPages * hw::kPageSize).is_ok());
    unmap_lookups = mem.page_map_lookups() - before;
    return 0;
  });
  EXPECT_EQ(protect_lookups, 3 + 2 * kPages);
  EXPECT_EQ(unmap_lookups, 3 + 2 * kPages);
  EXPECT_EQ(proc_->as->resident_pages(), 0u);
}

TEST_F(LinuxTest, MprotectSplitsVmas) {
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, 4 * hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    // Protect only the middle two pages.
    EXPECT_TRUE(sys.mprotect(*addr + hw::kPageSize, 2 * hw::kPageSize,
                             kProtRead)
                    .is_ok());
    std::uint64_t x = 5;
    EXPECT_TRUE(sys.mem_write(*addr, &x, sizeof(x)).is_ok());
    EXPECT_TRUE(
        sys.mem_write(*addr + 3 * hw::kPageSize, &x, sizeof(x)).is_ok());
    EXPECT_TRUE(sys.sigaction(kSigSegv,
                              [](int, std::uint64_t, SysIface&) {}).is_ok());
    EXPECT_FALSE(
        sys.mem_write(*addr + hw::kPageSize, &x, sizeof(x)).is_ok());
    return 0;
  });
  EXPECT_GE(proc_->as->vma_count(), 3u);
}

TEST_F(LinuxTest, BrkGrowsHeap) {
  run([](SysIface& sys) {
    auto cur = sys.syscall(SysNr::kBrk, {0, 0, 0, 0, 0, 0});
    EXPECT_TRUE(cur.is_ok());
    auto grown = sys.syscall(SysNr::kBrk, {*cur + 0x10000, 0, 0, 0, 0, 0});
    EXPECT_TRUE(grown.is_ok());
    std::uint64_t x = 9;
    EXPECT_TRUE(sys.mem_write(*cur, &x, sizeof(x)).is_ok());
    return 0;
  });
}

TEST_F(LinuxTest, GetcwdChdir) {
  run([](SysIface& sys) {
    EXPECT_EQ(sys.getcwd().value(), "/");
    char dirname[] = "subdir";
    // mkdir via raw syscall with a staged path.
    EXPECT_TRUE(sys.mem_write(sys.scratch_base() + 2048, dirname,
                              sizeof(dirname)).is_ok());
    EXPECT_TRUE(sys.syscall(SysNr::kMkdir,
                            {sys.scratch_base() + 2048, 0, 0, 0, 0, 0})
                    .is_ok());
    EXPECT_TRUE(sys.syscall(SysNr::kChdir,
                            {sys.scratch_base() + 2048, 0, 0, 0, 0, 0})
                    .is_ok());
    EXPECT_EQ(sys.getcwd().value(), "/subdir");
    return 0;
  });
}

TEST_F(LinuxTest, LseekMovesFileOffset) {
  run([](SysIface& sys) {
    auto fd = sys.open("/seek.bin", kOCreat | kORdWr);
    std::string data = "0123456789";
    EXPECT_TRUE(sys.write(*fd, data.data(), data.size()).is_ok());
    // SEEK_SET
    EXPECT_EQ(sys.syscall(SysNr::kLseek,
                          {static_cast<std::uint64_t>(*fd), 3, kSeekSet, 0, 0,
                           0})
                  .value(),
              3u);
    char c = 0;
    EXPECT_TRUE(sys.read(*fd, &c, 1).is_ok());
    EXPECT_EQ(c, '3');
    // SEEK_CUR (now at 4)
    EXPECT_EQ(sys.syscall(SysNr::kLseek,
                          {static_cast<std::uint64_t>(*fd), 2, kSeekCur, 0, 0,
                           0})
                  .value(),
              6u);
    // SEEK_END
    EXPECT_EQ(sys.syscall(SysNr::kLseek,
                          {static_cast<std::uint64_t>(*fd),
                           static_cast<std::uint64_t>(-2), kSeekEnd, 0, 0, 0})
                  .value(),
              8u);
    EXPECT_TRUE(sys.read(*fd, &c, 1).is_ok());
    EXPECT_EQ(c, '8');
    // Negative result rejected.
    EXPECT_FALSE(sys.syscall(SysNr::kLseek,
                             {static_cast<std::uint64_t>(*fd),
                              static_cast<std::uint64_t>(-100), kSeekSet, 0,
                              0, 0})
                     .is_ok());
    return 0;
  });
}

TEST_F(LinuxTest, DupSharesTheDescription) {
  run([](SysIface& sys) {
    auto fd = sys.open("/dup.bin", kOCreat | kORdWr);
    auto dup = sys.syscall(SysNr::kDup,
                           {static_cast<std::uint64_t>(*fd), 0, 0, 0, 0, 0});
    EXPECT_TRUE(dup.is_ok());
    EXPECT_NE(static_cast<int>(*dup), *fd);
    std::string data = "xy";
    EXPECT_TRUE(
        sys.write(static_cast<int>(*dup), data.data(), data.size()).is_ok());
    EXPECT_TRUE(sys.close(static_cast<int>(*dup)).is_ok());
    auto st = sys.stat("/dup.bin");
    EXPECT_EQ(st->size, 2u);
    return 0;
  });
}

TEST_F(LinuxTest, AppendModeWritesAtEnd) {
  run([](SysIface& sys) {
    auto fd = sys.open("/log.txt", kOCreat | kOWrOnly);
    std::string a = "first";
    EXPECT_TRUE(sys.write(*fd, a.data(), a.size()).is_ok());
    EXPECT_TRUE(sys.close(*fd).is_ok());
    auto afd = sys.open("/log.txt", kOWrOnly | kOAppend);
    std::string b = "+second";
    EXPECT_TRUE(sys.write(*afd, b.data(), b.size()).is_ok());
    auto st = sys.stat("/log.txt");
    EXPECT_EQ(st->size, 12u);
    return 0;
  });
  auto content = linux_.fs().read_file("/log.txt");
  EXPECT_EQ(*content, "first+second");
}

TEST_F(LinuxTest, NanosleepAdvancesVirtualTime) {
  run([](SysIface& sys) {
    const auto before = sys.vdso_gettimeofday();
    EXPECT_TRUE(
        sys.syscall(SysNr::kNanosleep, {5000, 0, 0, 0, 0, 0}).is_ok());
    const auto after = sys.vdso_gettimeofday();
    const std::uint64_t before_us = before.sec * 1000000 + before.usec;
    const std::uint64_t after_us = after.sec * 1000000 + after.usec;
    EXPECT_GE(after_us - before_us, 4900u);
    return 0;
  });
  EXPECT_GE(proc_->nvcsw, 1u);
}

TEST_F(LinuxTest, ThreadsJoinAndShareAddressSpace) {
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    auto tid = sys.thread_create([addr = *addr](SysIface& tsys) {
      std::uint64_t v = 0xabcd;
      EXPECT_TRUE(tsys.mem_write(addr, &v, sizeof(v)).is_ok());
    });
    EXPECT_TRUE(tid.is_ok());
    if (!tid.is_ok()) return 1;
    EXPECT_TRUE(sys.thread_join(*tid).is_ok());
    std::uint64_t seen = 0;
    EXPECT_TRUE(sys.mem_read(*addr, &seen, sizeof(seen)).is_ok());
    EXPECT_EQ(seen, 0xabcdu);
    return 0;
  });
  EXPECT_GE(proc_->syscall_count(SysNr::kClone), 1u);
  EXPECT_GE(proc_->syscall_count(SysNr::kFutex), 1u);
  EXPECT_GE(proc_->nvcsw, 1u);
}

TEST_F(LinuxTest, FutexWaitWake) {
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    const std::uint64_t futex_word = *addr;
    std::uint32_t zero = 0;
    EXPECT_TRUE(sys.mem_write(futex_word, &zero, sizeof(zero)).is_ok());

    auto tid = sys.thread_create([futex_word](SysIface& tsys) {
      std::uint32_t one = 1;
      EXPECT_TRUE(tsys.mem_write(futex_word, &one, sizeof(one)).is_ok());
      EXPECT_TRUE(
          tsys.syscall(SysNr::kFutex, {futex_word, 1, 8, 0, 0, 0}).is_ok());
    });
    // WAIT on value 0: blocks until the thread wakes us.
    auto r = sys.syscall(SysNr::kFutex, {futex_word, 0, 0, 0, 0, 0});
    // Either we blocked and were woken (OK) or the value already changed
    // (EAGAIN) — both are valid futex outcomes.
    EXPECT_TRUE(r.is_ok() || r.code() == Err::kAgain);
    EXPECT_TRUE(sys.thread_join(*tid).is_ok());
    return 0;
  });
}

TEST_F(LinuxTest, ItimerDeliversSigalrm) {
  run([](SysIface& sys) {
    static int ticks;
    ticks = 0;
    EXPECT_TRUE(sys.sigaction(kSigAlrm, [](int, std::uint64_t, SysIface&) {
      ++ticks;
    }).is_ok());
    EXPECT_TRUE(sys.setitimer(100).is_ok());  // 100 us period
    // Burn virtual time; each syscall entry checks the timer.
    for (int i = 0; i < 50; ++i) {
      sys.charge_user(1'000'000);  // ~455 us each
      (void)sys.poll0();
    }
    EXPECT_GT(ticks, 5);
    return 0;
  });
  EXPECT_GT(proc_->nivcsw, 0u);
}

TEST_F(LinuxTest, VdsoCallsSkipTheKernel) {
  std::uint64_t kernel_entries = ~std::uint64_t{0};
  run([&](SysIface& sys) {
    const std::uint64_t before = proc_->total_syscalls;
    const auto pid = sys.vdso_getpid();
    EXPECT_GT(pid, 0u);
    const auto tv = sys.vdso_gettimeofday();
    (void)tv;
    kernel_entries = proc_->total_syscalls - before;
    return 0;
  });
  EXPECT_EQ(kernel_entries, 0u);
  EXPECT_EQ(proc_->syscall_count(SysNr::kGetpid), 0u);
  EXPECT_EQ(proc_->vdso_getpid_calls, 1u);
  EXPECT_EQ(proc_->vdso_gtod_calls, 1u);
}

TEST_F(LinuxTest, RusageReportsRssAndFaults) {
  run([](SysIface& sys) {
    auto addr = sys.mmap(0, 32 * hw::kPageSize, kProtRead | kProtWrite,
                         kMapPrivate | kMapAnonymous);
    std::uint64_t x = 1;
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE(
          sys.mem_write(*addr + i * hw::kPageSize, &x, sizeof(x)).is_ok());
    }
    auto ru = sys.getrusage();
    EXPECT_TRUE(ru.is_ok());
    if (!ru.is_ok()) return 1;
    EXPECT_GE(ru->min_flt, 32u);
    EXPECT_GE(ru->max_rss_kb, 32 * 4u);
    return 0;
  });
}

TEST_F(LinuxTest, SyscallHistogramAccumulates) {
  run([](SysIface& sys) {
    for (int i = 0; i < 5; ++i) {
      auto a = sys.mmap(0, hw::kPageSize, kProtRead | kProtWrite,
                        kMapPrivate | kMapAnonymous);
      EXPECT_TRUE(sys.munmap(*a, hw::kPageSize).is_ok());
    }
    return 0;
  });
  EXPECT_EQ(proc_->syscall_count(SysNr::kMmap), 5u);
  EXPECT_EQ(proc_->syscall_count(SysNr::kMunmap), 5u);
  EXPECT_GE(proc_->total_syscalls, 10u);
}

TEST_F(LinuxTest, DisallowedSyscallsReportNoSys) {
  run([](SysIface& sys) {
    EXPECT_EQ(sys.syscall(SysNr::kFork, {}).code(), Err::kNoSys);
    EXPECT_EQ(sys.syscall(SysNr::kExecve, {}).code(), Err::kNoSys);
    return 0;
  });
}

TEST_F(LinuxTest, FileBackedMmapMajorFaults) {
  std::string content(3 * hw::kPageSize, 'z');
  ASSERT_TRUE(linux_.fs().write_file("/lib.so", content).is_ok());
  run([](SysIface& sys) {
    auto fd = sys.open("/lib.so", kORdOnly);
    auto addr = sys.syscall(
        SysNr::kMmap, {0, 3 * hw::kPageSize, kProtRead, kMapPrivate,
                       static_cast<std::uint64_t>(*fd), 0});
    EXPECT_TRUE(addr.is_ok());
    char c = 0;
    EXPECT_TRUE(sys.mem_read(*addr + 2 * hw::kPageSize, &c, 1).is_ok());
    EXPECT_EQ(c, 'z');
    return 0;
  });
  EXPECT_GE(proc_->as->major_faults(), 1u);
}

// Virtualized configuration: identical semantics, higher costs.
TEST(LinuxVirtualTest, VirtualizationAddsOverheadNotBehaviour) {
  auto run_once = [](bool virtualized) -> Cycles {
    hw::Machine machine(hw::MachineConfig{1, 2, 1 << 26});
    Sched sched;
    LinuxSim kernel(machine, sched,
                    LinuxSim::Config{{0}, virtualized});
    auto proc = kernel.spawn("p", [](SysIface& sys) {
      for (int i = 0; i < 20; ++i) {
        auto a = sys.mmap(0, hw::kPageSize, kProtRead | kProtWrite,
                          kMapPrivate | kMapAnonymous);
        std::uint64_t x = 1;
        (void)sys.mem_write(*a, &x, sizeof(x));
        (void)sys.munmap(*a, hw::kPageSize);
      }
      return 0;
    });
    EXPECT_TRUE(proc.is_ok());
    EXPECT_TRUE(kernel.run_all().is_ok());
    return machine.core(0).cycles();
  };
  const Cycles native = run_once(false);
  const Cycles virt = run_once(true);
  EXPECT_GT(virt, native);
  EXPECT_LT(virt, native * 2);  // virtualization is an overhead, not a cliff
}

}  // namespace
}  // namespace mv::ros
