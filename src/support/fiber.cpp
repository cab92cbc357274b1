#include "support/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "support/result.hpp"
#include "support/strings.hpp"

namespace mv {
namespace {

thread_local Fiber* g_current_fiber = nullptr;
thread_local Fiber* g_trampoline_target = nullptr;

}  // namespace

Fiber::Fiber(Entry entry, std::size_t stack_size)
    : entry_(std::move(entry)) {
  static const std::size_t kPage =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t stack = (stack_size + kPage - 1) / kPage * kPage;
  mapping_size_ = kPage + stack;
  // The host commits (and zero-fills) a page of an anonymous mapping only
  // when the fiber first touches it, so a task costs what its call chain
  // uses rather than its stack size. MAP_NORESERVE keeps the untouched rest
  // out of the host's commit accounting.
  void* base = mmap(nullptr, mapping_size_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  MV_CHECK(base != MAP_FAILED,
           strfmt("fiber stack mmap(%zu): %s", mapping_size_,
                  std::strerror(errno)));
  mapping_ = base;
  // The stack grows down into the guard page, so an overflow faults instead
  // of running into whatever is mapped below.
  MV_CHECK(mprotect(base, kPage, PROT_NONE) == 0,
           strfmt("fiber guard page mprotect: %s", std::strerror(errno)));
  getcontext(&context_);
  context_.uc_stack.ss_sp = static_cast<std::uint8_t*>(base) + kPage;
  context_.uc_stack.ss_size = stack;
  context_.uc_link = nullptr;  // we longjmp back manually in trampoline()
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

Fiber::~Fiber() {
  // A fiber may be destroyed while suspended (e.g. deliberately deadlocked
  // tasks at simulation teardown). Its stack is simply released; RAII state
  // living on that stack leaks by design — the simulation owns no resources
  // beyond host memory. Destroying a *running* fiber is a logic error.
  assert(state_ != State::kRunning);
  release_stack();
}

void Fiber::release_stack() {
  if (mapping_ == nullptr) return;
  MV_CHECK(munmap(mapping_, mapping_size_) == 0,
           strfmt("fiber stack munmap: %s", std::strerror(errno)));
  mapping_ = nullptr;
}

void Fiber::trampoline() {
  Fiber* self = g_trampoline_target;
  self->entry_();
  self->state_ = State::kFinished;
  g_current_fiber = self->prev_;
  swapcontext(&self->context_, &self->return_context_);
  // Unreachable: a finished fiber is never resumed.
  std::abort();
}

void Fiber::resume() {
  assert(state_ == State::kReady || state_ == State::kSuspended);
  prev_ = g_current_fiber;
  g_current_fiber = this;
  if (state_ == State::kReady) g_trampoline_target = this;
  state_ = State::kRunning;
  swapcontext(&return_context_, &context_);
  // Back here after yield() or completion; g_current_fiber already restored.
  // A finished fiber never runs again: give its stack back now rather than
  // when the owner drops the Fiber.
  if (state_ == State::kFinished) release_stack();
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "yield() outside any fiber");
  self->state_ = State::kSuspended;
  g_current_fiber = self->prev_;
  swapcontext(&self->context_, &self->return_context_);
  // Resumed again.
  self->state_ = State::kRunning;
}

Fiber* Fiber::current() noexcept { return g_current_fiber; }

}  // namespace mv
