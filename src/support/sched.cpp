#include "support/sched.hpp"

#include <cassert>

#include "support/flightrec.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv {

Sched::Sched() {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.bind_core_source(this, [this] { return current_core(); });
  recorder.register_state_provider(this, "sched", [this] {
    std::string out = strfmt("live=%zu current=%llu", live_,
                             static_cast<unsigned long long>(current_));
    for (const std::string& name : blocked_names()) {
      out += "\n  blocked: " + name;
    }
    return out;
  });
}

Sched::~Sched() {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.clear_core_source(this);
  recorder.unregister_state_providers(this);
}

TaskId Sched::spawn(unsigned core, std::function<void()> fn,
                    std::string name) {
  auto task = std::make_unique<Task>();
  task->id = next_id_++;
  task->core = core;
  task->name = std::move(name);
  Task* raw = task.get();
  task->fiber = std::make_unique<Fiber>(
      [this, raw, fn = std::move(fn)]() {
        fn();
        raw->done = true;
      },
      16 * 1024 * 1024);
  run_queue_.push_back(task->id);
  ++live_;
  tasks_.push_back(std::move(task));
  MV_TRACE("sched", strfmt("spawn task %llu '%s' on core %u",
                           static_cast<unsigned long long>(raw->id),
                           raw->name.c_str(), core));
  return raw->id;
}

Status Sched::run() {
  assert(!running_ && "Sched::run is not reentrant");
  running_ = true;
  while (!run_queue_.empty()) {
    const TaskId id = run_queue_.front();
    run_queue_.pop_front();
    Task* task = find(id);
    if (task == nullptr || task->done || task->blocked) continue;
    current_ = id;
    Tracer& tracer = Tracer::instance();
    const std::uint64_t slice_begin = tracer.now(task->core);
    task->fiber->resume();
    const std::uint64_t slice_end = tracer.now(task->core);
    current_ = kNoTask;
    account_slice(*task, slice_begin, slice_end);
    if (task->done) {
      --live_;
    } else if (!task->blocked) {
      run_queue_.push_back(id);  // yielded voluntarily
    }
  }
  running_ = false;
  if (live_ > 0) {
    std::string who;
    for (const auto& name : blocked_names()) {
      if (!who.empty()) who += ", ";
      who += name;
    }
    return err(Err::kState, "deadlock: blocked tasks remain: " + who);
  }
  return Status::ok();
}

void Sched::account_slice(const Task& task, std::uint64_t begin,
                          std::uint64_t end) {
  if (end <= begin) return;  // no simulated clock bound, or nothing charged
  if (core_busy_.size() <= task.core) {
    core_busy_.resize(task.core + 1, 0);
    core_slices_.resize(task.core + 1, 0);
  }
  core_busy_[task.core] += end - begin;
  ++core_slices_[task.core];
  if (end > max_end_cycles_) max_end_cycles_ = end;
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) {
    tracer.complete(task.core, "sched", task.name, begin, end);
  }
}

std::uint64_t Sched::busy_cycles(unsigned core) const {
  return core < core_busy_.size() ? core_busy_[core] : 0;
}

std::uint64_t Sched::slices(unsigned core) const {
  return core < core_slices_.size() ? core_slices_[core] : 0;
}

void Sched::yield() {
  assert(current_ != kNoTask && "yield outside a task");
  Fiber::yield();
}

void Sched::block() {
  Task* task = find(current_);
  assert(task != nullptr && "block outside a task");
  if (task->wake_pending) {
    // A wake arrived between the caller's emptiness check and this call:
    // consume the token and keep running so the caller re-checks.
    task->wake_pending = false;
    return;
  }
  task->blocked = true;
  FlightRecorder::instance().record(task->core, FrKind::kSchedBlock, 0,
                                    task->id, task->core);
  Fiber::yield();
  // When we come back, someone unblocked us.
}

void Sched::unblock(TaskId id) {
  Task* task = find(id);
  if (task == nullptr || task->done || !task->blocked) return;
  task->blocked = false;
  FlightRecorder::instance().record(task->core, FrKind::kSchedWake, 0, task->id,
                                    task->core);
  run_queue_.push_back(id);
}

void Sched::wake(TaskId id) {
  Task* task = find(id);
  if (task == nullptr || task->done) return;
  if (task->blocked) {
    task->blocked = false;
    FlightRecorder::instance().record(task->core, FrKind::kSchedWake, 0,
                                      task->id, task->core);
    run_queue_.push_back(id);
    return;
  }
  task->wake_pending = true;
}

unsigned Sched::current_core() const {
  const Task* task = find(current_);
  return task != nullptr ? task->core : 0;
}

bool Sched::finished(TaskId id) const {
  const Task* task = find(id);
  return task == nullptr || task->done;
}

std::vector<std::string> Sched::blocked_names() const {
  std::vector<std::string> out;
  for (const auto& task : tasks_) {
    if (!task->done && task->blocked) out.push_back(task->name);
  }
  return out;
}

Sched::Task* Sched::find(TaskId id) {
  // Ids are dense from 1 and tasks are never erased, so an id is its index.
  if (id == kNoTask || id > tasks_.size()) return nullptr;
  return tasks_[id - 1].get();
}

const Sched::Task* Sched::find(TaskId id) const {
  return const_cast<Sched*>(this)->find(id);
}

}  // namespace mv
