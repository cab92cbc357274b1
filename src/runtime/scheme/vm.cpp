#include "runtime/scheme/vm.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "runtime/scheme/engine.hpp"
#include "support/strings.hpp"

// The Vessel bytecode VM dispatch loop. GC discipline: the operand stack
// and every frame's env/closure cell are roots (marked through the engine's
// extra_root_marker), so values are safe exactly while they are on the
// stack or in frame slots. Every allocation point below keeps its operands
// in one of those two places (or in an explicit RootScope) until the new
// cell is reachable.
//
// Host cost (DESIGN.md §13): vm_run holds the operand-stack top, the
// frame's slots and a down-counter of steps to the next event step in
// locals, and writes the height and the counted steps back to the engine
// before anything that can read them. Every simulated figure stays what
// counting each instruction on its own gives.

namespace mv::scheme {

namespace {

// Builtin arguments copied to the C++ stack; longer lists spill to the
// host heap.
constexpr std::size_t kInlineArgs = 8;

// The inline fast path of a tagged builtin (Prim, value.hpp): its common
// operand types only, computed with the helpers the builtin itself uses.
// Returns false for anything else (other types, arity, a zero divisor, an
// index out of range, a flonum with no fixnum value, a store that takes a
// barrier fault, and `cons`, which allocates and is op_call's); the caller
// then calls the builtin, so every error text and every fault comes from
// builtins.cpp. Forced inline: called out of line, the result makes a
// round trip through memory on every builtin call.
[[gnu::always_inline]] inline bool prim_fast(Prim prim, const Value* args,
                                             std::size_t nargs, Value* out) {
  const bool two_numbers =
      nargs == 2 && args[0].is_number() && args[1].is_number();
  const bool one_number = nargs == 1 && args[0].is_number();
  // `+`, `-` and `*` on two or more numbers fold left, as numeric_fold.
  // Two operands skip the loop: through it, a co-located racket run took
  // 7.5% more host CPU time.
  const auto fold = [&] [[gnu::always_inline]] (
                        Value (*op)(const Value&, const Value&)) {
    if (two_numbers) {
      *out = op(args[0], args[1]);
      return true;
    }
    if (nargs < 3 || !args[0].is_number()) return false;
    Value acc = args[0];
    for (std::size_t i = 1; i < nargs; ++i) {
      if (!args[i].is_number()) return false;
      acc = op(acc, args[i]);
    }
    *out = acc;
    return true;
  };
  switch (prim) {
    case Prim::kNone:
    case Prim::kCons:
      return false;
    case Prim::kAdd:
      return fold(num_add);
    case Prim::kSub:
      return fold(num_sub);
    case Prim::kMul:
      return fold(num_mul);
    case Prim::kDiv:
      if (!two_numbers || args[1].as_real() == 0) return false;
      *out = num_div(args[0], args[1]);
      return true;
    case Prim::kModulo:
      if (nargs != 2 || !args[0].is_int() || !args[1].is_int() ||
          args[1].i == 0) {
        return false;
      }
      *out = Value::integer(fix_modulo(args[0].i, args[1].i));
      return true;
    case Prim::kNumEq:
      if (!two_numbers) return false;
      *out = Value::boolean(num_eq(args[0], args[1]));
      return true;
    case Prim::kLt:
      if (!two_numbers) return false;
      *out = Value::boolean(num_lt(args[0], args[1]));
      return true;
    case Prim::kGt:
      if (!two_numbers) return false;
      *out = Value::boolean(num_gt(args[0], args[1]));
      return true;
    case Prim::kEven:
      if (nargs != 1) return false;
      *out = Value::boolean(num_even(args[0]));
      return true;
    case Prim::kFloor:
      if (!one_number) return false;
      *out = args[0].is_int() ? args[0] : Value::real(std::floor(args[0].d));
      return true;
    case Prim::kSqrt:
      if (!one_number) return false;
      *out = Value::real(std::sqrt(args[0].as_real()));
      return true;
    case Prim::kInexactToExact:
      if (!one_number) return false;
      if (args[0].is_int()) {
        *out = args[0];
      } else if (fixnum_range(args[0].d)) {
        *out = Value::integer(static_cast<std::int64_t>(args[0].d));
      } else {
        return false;
      }
      return true;
    case Prim::kNull:
      if (nargs != 1) return false;
      *out = Value::boolean(args[0].is_nil());
      return true;
    case Prim::kCar:
      if (nargs != 1 || !args[0].is_pair()) return false;
      *out = args[0].cell->car;
      return true;
    case Prim::kCdr:
      if (nargs != 1 || !args[0].is_pair()) return false;
      *out = args[0].cell->cdr;
      return true;
    case Prim::kVectorRef:
      if (nargs != 2 || !args[0].is_vector() || !args[1].is_int() ||
          !index_ok(args[1].i, args[0].cell->vec.size())) {
        return false;
      }
      *out = args[0].cell->vec[static_cast<std::size_t>(args[1].i)];
      return true;
    case Prim::kVectorSet:
      if (nargs != 3 || !args[0].is_vector() || !args[1].is_int() ||
          !index_ok(args[1].i, args[0].cell->vec.size()) ||
          Heap::barrier_armed(args[0].cell)) {
        return false;
      }
      args[0].cell->vec[static_cast<std::size_t>(args[1].i)] = args[2];
      *out = Value::unspecified();
      return true;
    case Prim::kStringSet:
      if (nargs != 3 || !args[0].is_string() || !args[1].is_int() ||
          !args[2].is_char() ||
          !index_ok(args[1].i, args[0].cell->str.size()) ||
          Heap::barrier_armed(args[0].cell)) {
        return false;
      }
      args[0].cell->str[static_cast<std::size_t>(args[1].i)] = args[2].c;
      *out = Value::unspecified();
      return true;
  }
  return false;
}

// Calls builtin (or interpreter closure) `fn` on a copy of the nargs
// operands at `argv`. The copy matters: apply and sort re-enter the VM,
// which can grow and move the operand stack while the callee still reads
// its arguments.
Result<Value> call_native(Engine& engine, Value fn, const Value* argv,
                          std::size_t nargs) {
  Value local[kInlineArgs];
  std::vector<Value> spilled;
  Args args;
  if (nargs <= kInlineArgs) {
    std::copy(argv, argv + nargs, local);
    args = {local, nargs};
  } else {
    spilled.assign(argv, argv + nargs);
    args = spilled;
  }
  return fn.cell->type == Cell::Type::kBuiltin
             ? fn.cell->builtin(engine, args)
             : engine.apply_value(fn, args);
}

bool arity_ok(const Proto& proto, std::size_t nargs) {
  return nargs >= proto.nparams && (proto.has_rest || nargs == proto.nparams);
}

Status arity_error(const Cell& cl, const Proto& proto, std::size_t nargs) {
  return err(Err::kInval,
             strfmt("%s: expected %zu argument(s), got %zu",
                    cl.proc_name.empty() ? "procedure" : cl.proc_name.c_str(),
                    static_cast<std::size_t>(proto.nparams), nargs));
}

}  // namespace

void ValueStack::grow() {
  slots_.resize(slots_.empty() ? 256 : 2 * slots_.size());
}

VmContext& Engine::current_vm_context() {
  const Fiber* fiber = Fiber::current();
  for (auto& [f, ctx] : vm_contexts_) {
    if (f == fiber) return *ctx;
  }
  vm_contexts_.emplace_back(fiber, std::make_unique<VmContext>());
  return *vm_contexts_.back().second;
}

std::uint64_t Engine::vm_max_frame_depth() const noexcept {
  std::uint64_t max_depth = 0;
  for (const auto& [f, ctx] : vm_contexts_) {
    if (ctx->max_frames_depth > max_depth) max_depth = ctx->max_frames_depth;
  }
  return max_depth;
}

// Per-instruction accounting. Charge batching uses the same 64-step
// threshold as count_step so syscall-visible charge_user calls batch the
// same way; the tick cadence is scaled (vm_tick_every_) so wall-clock
// poll/getrusage/timer traffic matches the interpreter's. Every VM step
// adds to evals_ and pending_charge_; only an event step, the first whose
// count reaches the charge threshold or the next tick, does more. This is
// how many steps away the next one is (>= 1).
std::uint64_t Engine::vm_steps_to_event() const {
  const std::uint64_t threshold = 64 * config_.eval_cycles;
  const std::uint64_t per_step = config_.vm_insn_cycles;
  std::uint64_t steps = std::numeric_limits<std::uint64_t>::max();
  if (pending_charge_ >= threshold) {
    steps = 1;
  } else if (per_step > 0) {
    steps = 1 + (threshold - pending_charge_ - 1) / per_step;
  }
  const std::uint64_t to_tick = next_tick_ > evals_ ? next_tick_ - evals_ : 1;
  return std::min(steps, to_tick);
}

Result<Value> Engine::eval_toplevel(Value form) {
  if (config_.exec != Exec::kBytecodeVm) return eval(form, global_env_);
  MV_ASSIGN_OR_RETURN(const int idx, compile_toplevel(*this, form));
  return run_toplevel_proto(idx);
}

Status Engine::vm_bind_args(VmContext& ctx, Cell* frame, const Proto& proto,
                            std::size_t fnpos, std::size_t nargs) {
  heap_.write_barrier_unrooted(frame);
  const std::size_t fixed = proto.nparams;
  for (std::size_t i = 0; i < fixed; ++i) {
    frame->vec[i] = ctx.stack[fnpos + 1 + i];
  }
  if (proto.has_rest) {
    RootScope scope(heap_);
    scope.add(Value::from_cell(frame));
    Value rest = Value::nil();
    for (std::size_t i = nargs; i-- > fixed;) {
      scope.add(rest);
      MV_ASSIGN_OR_RETURN(rest, cons(ctx.stack[fnpos + 1 + i], rest));
    }
    frame->vec[fixed] = rest;
  }
  return Status::ok();
}

Status Engine::vm_push_call(VmContext& ctx, std::size_t nargs) {
  const std::size_t fnpos = ctx.stack.size() - nargs - 1;
  Cell* const cl = ctx.stack[fnpos].cell;
  const Proto* const proto =
      protos_[static_cast<std::size_t>(cl->proto_idx)].get();
  if (!arity_ok(*proto, nargs)) return arity_error(*cl, *proto, nargs);
  // Allocation is safe: cl and the args are still on the operand stack.
  MV_ASSIGN_OR_RETURN(Cell* const frame,
                      heap_.alloc_env_frame(proto->nslots));
  frame->vec.assign(proto->nslots, Value{});
  frame->parent_env = cl->closure_env;
  MV_RETURN_IF_ERROR(vm_bind_args(ctx, frame, *proto, fnpos, nargs));
  ctx.stack.set_size(fnpos);
  VmFrame fr;
  fr.proto = proto;
  fr.env = frame;
  fr.closure = cl;
  fr.ip = 0;
  fr.stack_base = fnpos;
  fr.poolable = !proto->frame_escapes;
  ctx.frames.push_back(fr);
  if (ctx.frames.size() > ctx.max_frames_depth) {
    ctx.max_frames_depth = ctx.frames.size();
  }
  return Status::ok();
}

// Threaded dispatch: every handler ends in VM_DISPATCH, which fetches the
// next instruction, counts its step and jumps to its handler through
// vm_run's label table (GCC labels-as-values).
#define VM_DISPATCH()                                    \
  do {                                                   \
    insn = pc++;                                         \
    if (--left == 0) goto event_step;                    \
    goto* kHandlers[static_cast<std::size_t>(insn->op)]; \
  } while (0)

Result<Value> Engine::vm_run(VmContext& ctx, std::size_t frame_floor) {
  ValueStack& stack = ctx.stack;

  // The helper lambdas below are forced inline: one left out of line takes
  // every local it captures by reference into memory, the register-held
  // stack top and step counter with them.
  //
  // The running frame lives in locals: its record, code, constants, slot
  // array and next instruction. The record's ip is stale while the frame
  // runs; it is stored before a call leaves the frame. Any call, return or
  // builtin call can move the frame records, so each reloads `fr`.
  VmFrame* fr = nullptr;
  const Insn* code = nullptr;
  const Insn* pc = nullptr;
  const Value* consts = nullptr;
  Value* slots = nullptr;  // fr->env's slots; the env never resizes
  const auto load_frame = [&] [[gnu::always_inline]] () {
    fr = &ctx.frames.back();
    code = fr->proto->code.data();
    consts = fr->proto->consts.data();
    slots = fr->env->vec.data();
    pc = code + fr->ip;
  };

  // The operand stack's top lives in `sp` (one past it) and its storage
  // end in `sp_end`; stack.size() is stale while instructions run.
  Value* sp = nullptr;
  Value* sp_end = nullptr;
  // Step accounting: `left` counts down to the next event step
  // (vm_steps_to_event), from `batch`; batch - left steps have run but are
  // not yet in evals_/pending_charge_.
  std::uint64_t batch = 0;
  std::uint64_t left = 0;
  // Hands the stack height and the counted steps to the engine. Runs before
  // everything that reads them or can switch to another interpreter thread:
  // an allocation (the collector marks every context's stack), a builtin or
  // closure call, a barrier fault, an event step, leaving vm_run.
  const auto sync = [&] [[gnu::always_inline]] () {
    stack.set_size(static_cast<std::size_t>(sp - stack.data()));
    evals_ += batch - left;
    pending_charge_ += (batch - left) * config_.vm_insn_cycles;
    batch = left;
  };
  // Takes them back after such a call, which may have counted steps of its
  // own (a nested VM, the tree walker, another thread).
  const auto resume = [&] [[gnu::always_inline]] () {
    fr = &ctx.frames.back();
    sp = stack.data() + stack.size();
    sp_end = stack.data() + stack.capacity();
    batch = left = vm_steps_to_event();
  };
  // By value: `v` may be a stack element, which growth moves.
  const auto push = [&] [[gnu::always_inline]] (Value v) {
    if (sp == sp_end) {
      stack.set_size(static_cast<std::size_t>(sp - stack.data()));
      stack.grow();
      sp = stack.data() + stack.size();
      sp_end = stack.data() + stack.capacity();
    }
    *sp++ = v;
  };
  const auto barrier = [&] [[gnu::always_inline]] (Cell* cell) {
    if (Heap::barrier_armed(cell)) {
      sync();
      heap_.write_barrier(cell);
      resume();
    }
  };

  // One handler per Op, in declaration order.
  static void* const kHandlers[] = {
      &&op_const,         &&op_local,        &&op_set_local,
      &&op_global,        &&op_set_global,   &&op_def_global,
      &&op_pop,           &&op_dup,          &&op_jump,
      &&op_jump_if_false, &&op_jump_if_true, &&op_make_closure,
      &&op_call,          &&op_tail_call,    &&op_return,
      &&op_cons,          &&op_init_slots,   &&op_name_if_anon,
      &&op_case_match,
  };
  static_assert(std::size(kHandlers) ==
                static_cast<std::size_t>(Op::kCaseMatch) + 1);

  const Insn* insn = nullptr;  // the running instruction
  Value ret;  // the value do_return hands to the caller
  load_frame();
  resume();
  VM_DISPATCH();

event_step:
  // count_step's checks, on the step that passes a threshold.
  sync();
  if (pending_charge_ >= 64 * config_.eval_cycles) {
    sys().charge_user(pending_charge_);
    pending_charge_ = 0;
  }
  if (evals_ >= next_tick_) {
    next_tick_ = evals_ + vm_tick_every_;
    tick();
  }
  resume();
  goto* kHandlers[static_cast<std::size_t>(insn->op)];

op_const:
  push(consts[insn->a]);
  VM_DISPATCH();

op_local: {
  const Value* s = slots;
  if (insn->a != 0) {
    Cell* e = fr->env;
    for (std::int32_t d = 0; d < insn->a; ++d) e = e->parent_env;
    s = e->vec.data();
  }
  push(s[insn->b]);
  VM_DISPATCH();
}

op_set_local: {
  Cell* e = fr->env;
  Value* s = slots;
  if (insn->a != 0) {
    for (std::int32_t d = 0; d < insn->a; ++d) e = e->parent_env;
    s = e->vec.data();
  }
  s[insn->b] = *--sp;
  barrier(e);
  VM_DISPATCH();
}

op_global: {
  const SymId sym = static_cast<SymId>(insn->a);
  const Value* const slot = global_slot(sym);
  if (slot == nullptr) {
    sync();
    return unbound_error(sym);
  }
  push(*slot);
  VM_DISPATCH();
}

op_set_global: {
  const SymId sym = static_cast<SymId>(insn->a);
  Value* const slot = global_slot(sym);
  if (slot == nullptr) {
    sync();
    return unbound_set_error(sym);
  }
  *slot = *--sp;
  VM_DISPATCH();
}

op_def_global:
  bind_global(static_cast<SymId>(insn->a), sp[-1]);
  --sp;
  VM_DISPATCH();

op_pop:
  --sp;
  VM_DISPATCH();

op_dup:
  push(sp[-1]);
  VM_DISPATCH();

op_jump:
  pc = code + insn->a;
  VM_DISPATCH();

op_jump_if_false:
  if (!(--sp)->truthy()) pc = code + insn->a;
  VM_DISPATCH();

op_jump_if_true:
  if ((--sp)->truthy()) pc = code + insn->a;
  VM_DISPATCH();

op_make_closure: {
  sync();
  MV_ASSIGN_OR_RETURN(Cell* const cl, heap_.alloc(Cell::Type::kClosure));
  resume();
  cl->proto_idx = insn->a;
  cl->closure_env = fr->env;
  cl->proc_name = protos_[static_cast<std::size_t>(insn->a)]->name;
  push(Value::from_cell(cl));
  VM_DISPATCH();
}

op_call:
op_tail_call: {
  const bool is_tail = insn->op == Op::kTailCall;
  const std::size_t nargs = static_cast<std::size_t>(insn->a);
  Value* const fnp = sp - nargs - 1;
  const Value fn = *fnp;
  // A tagged builtin first: only builtin cells carry a Prim, so a hit
  // needs no other check. Its result takes the callee's slot.
  if (fn.is_cell() && fn.cell->prim != Prim::kNone) {
    bool hit = prim_fast(fn.cell->prim, fnp + 1, nargs, &ret);
    if (!hit && fn.cell->prim == Prim::kCons && nargs == 2) {
      // As op_cons: the operands stay on the (rooted) stack through the
      // allocation.
      sync();
      MV_ASSIGN_OR_RETURN(ret, cons(sp[-2], sp[-1]));
      resume();
      hit = true;
    }
    if (hit) {
      sp -= nargs + 1;
      if (is_tail) goto do_return;
      *sp++ = ret;
      VM_DISPATCH();
    }
  }
  if (!fn.is_callable()) {
    sync();
    return err(Err::kInval,
               "application of non-procedure: " + to_display(fn) + " in " +
                   to_display(consts[static_cast<std::size_t>(insn->b)]));
  }
  const std::size_t fnpos = static_cast<std::size_t>(fnp - stack.data());

  if (fn.cell->type == Cell::Type::kBuiltin || fn.cell->proto_idx < 0) {
    // Builtin, or an interpreter closure leaking across engines: evaluate
    // to a value here (args stay rooted on the operand stack until the
    // result is in).
    sync();
    if (fn.cell->type == Cell::Type::kBuiltin) {
      ++vm_stats_.generic_builtin_calls;
    }
    MV_ASSIGN_OR_RETURN(ret, call_native(*this, fn, stack.data() + fnpos + 1,
                                         nargs));
    resume();
    sp = stack.data() + fnpos;
    if (is_tail) goto do_return;
    *sp++ = ret;
    VM_DISPATCH();
  }

  if (!is_tail) {
    fr->ip = static_cast<std::uint32_t>(pc - code);
    sync();
    MV_RETURN_IF_ERROR(vm_push_call(ctx, nargs));
    load_frame();
    resume();
    VM_DISPATCH();
  }

  // Tail call to a bytecode closure: replace the current frame.
  Cell* const cl = fn.cell;
  const Proto* const proto =
      protos_[static_cast<std::size_t>(cl->proto_idx)].get();
  if (!arity_ok(*proto, nargs)) {
    sync();
    return arity_error(*cl, *proto, nargs);
  }

  if (cl == fr->closure && fr->poolable) {
    // Self tail call to a non-escaping frame: rebind in place. Slots need
    // no clearing — correct programs store before every read (params
    // here; contour slots at their binding forms).
    if (proto->has_rest) {
      sync();
      MV_RETURN_IF_ERROR(vm_bind_args(ctx, fr->env, *proto, fnpos, nargs));
      resume();
    } else {
      barrier(fr->env);
      std::copy(sp - nargs, sp, slots);
    }
    sp = stack.data() + fr->stack_base;
    pc = code;
    VM_DISPATCH();
  }

  sync();
  MV_ASSIGN_OR_RETURN(Cell* const frame, heap_.alloc_env_frame(proto->nslots));
  frame->vec.assign(proto->nslots, Value{});
  frame->parent_env = cl->closure_env;
  MV_RETURN_IF_ERROR(vm_bind_args(ctx, frame, *proto, fnpos, nargs));
  VmFrame& cur = ctx.frames.back();
  Cell* const old_env = cur.env;
  const bool old_poolable = cur.poolable;
  stack.set_size(cur.stack_base);
  cur.proto = proto;
  cur.env = frame;
  cur.closure = cl;
  cur.ip = 0;
  cur.poolable = !proto->frame_escapes;
  if (old_poolable) heap_.recycle_env_frame(old_env);
  load_frame();
  resume();
  VM_DISPATCH();
}

op_return:
  ret = sp[-1];
do_return: {
  // Pop the current frame, recycling its env when poolable (a non-escaping
  // frame is unreachable once its VmFrame record is gone).
  const VmFrame done = ctx.frames.back();
  ctx.frames.pop_back();
  if (done.poolable) heap_.recycle_env_frame(done.env);
  sp = stack.data() + done.stack_base;
  if (ctx.frames.size() == frame_floor) {
    sync();
    return ret;
  }
  // No growth check: a frame above the floor started where its callee
  // was pushed, so its base is below the height at that call.
  *sp++ = ret;
  load_frame();
  VM_DISPATCH();
}

op_cons: {
  // Operands stay on the (rooted) stack through the allocation.
  sync();
  MV_ASSIGN_OR_RETURN(const Value pair, cons(sp[-2], sp[-1]));
  resume();
  sp[-2] = pair;
  --sp;
  VM_DISPATCH();
}

op_init_slots:
  std::fill_n(slots + insn->a, insn->b, Value::unspecified());
  barrier(fr->env);
  VM_DISPATCH();

op_name_if_anon: {
  const Value v = sp[-1];
  if (v.is_cell() && v.cell->type == Cell::Type::kClosure &&
      v.cell->proc_name.empty()) {
    v.cell->proc_name = sym_name(static_cast<SymId>(insn->a));
  }
  VM_DISPATCH();
}

op_case_match: {
  const Value key = sp[-1];
  bool hit = false;
  for (Value d = consts[static_cast<std::size_t>(insn->a)];
       !hit && d.is_pair(); d = d.cell->cdr) {
    hit = value_eqv(key, d.cell->car);
  }
  push(Value::boolean(hit));
  VM_DISPATCH();
}
}

#undef VM_DISPATCH

Result<Value> Engine::run_toplevel_proto(int proto_idx) {
  VmContext& ctx = current_vm_context();
  const std::size_t floor = ctx.frames.size();
  const std::size_t entry = ctx.stack.size();
  const Proto* const proto =
      protos_[static_cast<std::size_t>(proto_idx)].get();
  MV_ASSIGN_OR_RETURN(Cell* const frame,
                      heap_.alloc_env_frame(proto->nslots));
  frame->vec.assign(proto->nslots, Value{});
  frame->parent_env = nullptr;
  heap_.write_barrier_unrooted(frame);
  VmFrame fr;
  fr.proto = proto;
  fr.env = frame;
  fr.closure = nullptr;
  fr.ip = 0;
  fr.stack_base = entry;
  fr.poolable = !proto->frame_escapes;
  ctx.frames.push_back(fr);
  if (ctx.frames.size() > ctx.max_frames_depth) {
    ctx.max_frames_depth = ctx.frames.size();
  }
  Result<Value> result = vm_run(ctx, floor);
  if (!result.is_ok()) {
    // Unwind to the entry state; abandoned envs are ordinary garbage.
    ctx.frames.resize(floor);
    ctx.stack.set_size(entry);
  }
  return result;
}

Result<Value> Engine::vm_apply(Value fn, Args args) {
  VmContext& ctx = current_vm_context();
  const std::size_t floor = ctx.frames.size();
  const std::size_t entry = ctx.stack.size();
  ctx.stack.push_back(fn);
  for (const Value& a : args) ctx.stack.push_back(a);
  const Status st = vm_push_call(ctx, args.size());
  if (!st.is_ok()) {
    ctx.stack.set_size(entry);
    return st;
  }
  Result<Value> result = vm_run(ctx, floor);
  if (!result.is_ok()) {
    ctx.frames.resize(floor);
    ctx.stack.set_size(entry);
  }
  return result;
}

}  // namespace mv::scheme
