#include "runtime/scheme/vm.hpp"

#include <algorithm>
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

namespace mv::scheme {

namespace {

// Builtin arguments copied to the C++ stack; longer lists spill to the
// host heap.
constexpr std::size_t kInlineArgs = 8;

// The inline fast path of a tagged builtin (Prim, value.hpp): its common
// operand types only, computed with the helpers the builtin itself uses.
// Returns false for anything else (other types, arity, an index out of
// range); the caller then calls the builtin, so every error text comes
// from builtins.cpp. Forced inline: called out of line, the result makes a
// round trip through memory on every builtin call.
[[gnu::always_inline]] inline bool prim_fast(Prim prim, Heap& heap,
                                             const Value* args,
                                             std::size_t nargs, Value* out) {
  const bool two_numbers =
      nargs == 2 && args[0].is_number() && args[1].is_number();
  switch (prim) {
    case Prim::kNone:
      return false;
    case Prim::kAdd:
      if (!two_numbers) return false;
      *out = num_add(args[0], args[1]);
      return true;
    case Prim::kSub:
      if (!two_numbers) return false;
      *out = num_sub(args[0], args[1]);
      return true;
    case Prim::kMul:
      if (!two_numbers) return false;
      *out = num_mul(args[0], args[1]);
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
    case Prim::kVectorSet: {
      if (nargs != 3 || !args[0].is_vector() || !args[1].is_int() ||
          !index_ok(args[1].i, args[0].cell->vec.size())) {
        return false;
      }
      Cell* const v = args[0].cell;
      const std::size_t i = static_cast<std::size_t>(args[1].i);
      const Value x = args[2];
      heap.write_barrier(v);
      v->vec[i] = x;
      *out = Value::unspecified();
      return true;
    }
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
// poll/getrusage/timer traffic matches the interpreter's.
void Engine::count_vm_step() {
  ++evals_;
  pending_charge_ += config_.vm_insn_cycles;
  if (pending_charge_ >= 64 * config_.eval_cycles) {
    sys().charge_user(pending_charge_);
    pending_charge_ = 0;
  }
  if (evals_ >= next_tick_) {
    next_tick_ = evals_ + vm_tick_every_;
    tick();
  }
}

Result<Value> Engine::eval_toplevel(Value form) {
  if (config_.exec != Exec::kBytecodeVm) return eval(form, global_env_);
  MV_ASSIGN_OR_RETURN(const int idx, compile_toplevel(*this, form));
  return run_toplevel_proto(idx);
}

Status Engine::vm_push_call(VmContext& ctx, std::size_t nargs) {
  const std::size_t fnpos = ctx.stack.size() - nargs - 1;
  Cell* const cl = ctx.stack[fnpos].cell;
  const Proto* const proto =
      protos_[static_cast<std::size_t>(cl->proto_idx)].get();
  const std::size_t fixed = proto->nparams;
  if (nargs < fixed || (!proto->has_rest && nargs > fixed)) {
    return err(Err::kInval,
               strfmt("%s: expected %zu argument(s), got %zu",
                      cl->proc_name.empty() ? "procedure"
                                            : cl->proc_name.c_str(),
                      fixed, nargs));
  }
  // Allocation is safe: cl and the args are still on the operand stack.
  MV_ASSIGN_OR_RETURN(Cell* const frame,
                      heap_.alloc_env_frame(proto->nslots));
  frame->vec.assign(proto->nslots, Value{});
  frame->parent_env = cl->closure_env;
  heap_.write_barrier(frame);
  for (std::size_t i = 0; i < fixed; ++i) {
    frame->vec[i] = ctx.stack[fnpos + 1 + i];
  }
  if (proto->has_rest) {
    RootScope scope(heap_);
    scope.add(Value::from_cell(frame));
    Value rest = Value::nil();
    for (std::size_t i = nargs; i-- > fixed;) {
      scope.add(rest);
      MV_ASSIGN_OR_RETURN(rest, cons(ctx.stack[fnpos + 1 + i], rest));
    }
    frame->vec[fixed] = rest;
  }
  ctx.stack.truncate(fnpos);
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

Result<Value> Engine::vm_run(VmContext& ctx, std::size_t frame_floor) {
  ValueStack& stack = ctx.stack;

  // The running frame lives in locals: its record, code, constants and
  // next instruction. The record's ip is stale while the frame runs; it is
  // stored before a call leaves the frame. Any call, return or builtin call
  // can move the frame records, so each reloads the locals.
  VmFrame* fr = nullptr;
  const Insn* code = nullptr;
  const Value* consts = nullptr;
  std::uint32_t ip = 0;
  const auto load_frame = [&] {
    fr = &ctx.frames.back();
    code = fr->proto->code.data();
    consts = fr->proto->consts.data();
    ip = fr->ip;
  };

  // Pop the current frame, recycling its env when poolable (a non-escaping
  // frame is unreachable once its VmFrame record is gone). Returns true
  // when the floor frame returned; `out` then carries the final result.
  const auto do_return = [&](Value result, Value* out) -> bool {
    const VmFrame done = ctx.frames.back();
    ctx.frames.pop_back();
    if (done.poolable) heap_.recycle_env_frame(done.env);
    stack.truncate(done.stack_base);
    if (ctx.frames.size() == frame_floor) {
      *out = result;
      return true;
    }
    stack.push_back(result);
    load_frame();
    return false;
  };

  load_frame();
  for (;;) {
    const Insn insn = code[ip++];
    count_vm_step();

    switch (insn.op) {
      case Op::kConst:
        stack.push_back(consts[insn.a]);
        break;

      case Op::kLocal: {
        Cell* e = fr->env;
        for (std::int32_t d = 0; d < insn.a; ++d) e = e->parent_env;
        stack.push_back(e->vec[static_cast<std::size_t>(insn.b)]);
        break;
      }

      case Op::kSetLocal: {
        Cell* e = fr->env;
        for (std::int32_t d = 0; d < insn.a; ++d) e = e->parent_env;
        e->vec[static_cast<std::size_t>(insn.b)] = stack.back();
        stack.pop_back();
        heap_.write_barrier(e);
        break;
      }

      case Op::kGlobal: {
        const SymId sym = static_cast<SymId>(insn.a);
        const Value* const slot = global_slot(sym);
        if (slot == nullptr) return unbound_error(sym);
        stack.push_back(*slot);
        break;
      }

      case Op::kSetGlobal: {
        const SymId sym = static_cast<SymId>(insn.a);
        Value* const slot = global_slot(sym);
        if (slot == nullptr) return unbound_set_error(sym);
        *slot = stack.back();
        stack.pop_back();
        break;
      }

      case Op::kDefGlobal:
        bind_global(static_cast<SymId>(insn.a), stack.back());
        stack.pop_back();
        break;

      case Op::kPop:
        stack.pop_back();
        break;

      case Op::kDup:
        stack.push_back(stack.back());
        break;

      case Op::kJump:
        ip = static_cast<std::uint32_t>(insn.a);
        break;

      case Op::kJumpIfFalse: {
        const Value v = stack.back();
        stack.pop_back();
        if (!v.truthy()) ip = static_cast<std::uint32_t>(insn.a);
        break;
      }

      case Op::kJumpIfTrue: {
        const Value v = stack.back();
        stack.pop_back();
        if (v.truthy()) ip = static_cast<std::uint32_t>(insn.a);
        break;
      }

      case Op::kMakeClosure: {
        MV_ASSIGN_OR_RETURN(Cell* const cl,
                            heap_.alloc(Cell::Type::kClosure));
        cl->proto_idx = insn.a;
        cl->closure_env = fr->env;
        cl->proc_name = protos_[static_cast<std::size_t>(insn.a)]->name;
        stack.push_back(Value::from_cell(cl));
        break;
      }

      case Op::kCall:
      case Op::kTailCall: {
        const std::size_t nargs = static_cast<std::size_t>(insn.a);
        const std::size_t fnpos = stack.size() - nargs - 1;
        const Value fn = stack[fnpos];
        if (!fn.is_callable()) {
          return err(Err::kInval,
                     "application of non-procedure: " + to_display(fn) +
                         " in " +
                         to_display(consts[static_cast<std::size_t>(insn.b)]));
        }
        const bool is_tail = insn.op == Op::kTailCall;

        if (fn.cell->type == Cell::Type::kBuiltin ||
            fn.cell->proto_idx < 0) {
          // Builtin, or an interpreter closure leaking across engines:
          // evaluate to a value here (args stay rooted on the operand
          // stack until the result is in).
          const Value* const argv = stack.begin() + fnpos + 1;
          Value result;
          if (!prim_fast(fn.cell->prim, heap_, argv, nargs, &result)) {
            MV_ASSIGN_OR_RETURN(result, call_native(*this, fn, argv, nargs));
            fr = &ctx.frames.back();
          }
          stack.truncate(fnpos);
          if (is_tail) {
            Value out;
            if (do_return(result, &out)) return out;
          } else {
            stack.push_back(result);
          }
          break;
        }

        if (!is_tail) {
          fr->ip = ip;
          MV_RETURN_IF_ERROR(vm_push_call(ctx, nargs));
          load_frame();
          break;
        }

        // Tail call to a bytecode closure: replace the current frame.
        VmFrame& cur = *fr;
        Cell* const cl = fn.cell;
        const Proto* const proto =
            protos_[static_cast<std::size_t>(cl->proto_idx)].get();
        const std::size_t fixed = proto->nparams;
        if (nargs < fixed || (!proto->has_rest && nargs > fixed)) {
          return err(Err::kInval,
                     strfmt("%s: expected %zu argument(s), got %zu",
                            cl->proc_name.empty() ? "procedure"
                                                  : cl->proc_name.c_str(),
                            fixed, nargs));
        }

        if (cl == cur.closure && cur.poolable) {
          // Self tail call to a non-escaping frame: rebind in place. Slots
          // need no clearing — correct programs store before every read
          // (params here; contour slots at their binding forms).
          Cell* const frame = cur.env;
          heap_.write_barrier(frame);
          for (std::size_t i = 0; i < fixed; ++i) {
            frame->vec[i] = stack[fnpos + 1 + i];
          }
          if (proto->has_rest) {
            RootScope scope(heap_);
            Value rest = Value::nil();
            for (std::size_t i = nargs; i-- > fixed;) {
              scope.add(rest);
              MV_ASSIGN_OR_RETURN(rest, cons(stack[fnpos + 1 + i], rest));
            }
            frame->vec[fixed] = rest;
          }
          stack.truncate(cur.stack_base);
          ip = 0;
          break;
        }

        MV_ASSIGN_OR_RETURN(Cell* const frame,
                            heap_.alloc_env_frame(proto->nslots));
        frame->vec.assign(proto->nslots, Value{});
        frame->parent_env = cl->closure_env;
        heap_.write_barrier(frame);
        for (std::size_t i = 0; i < fixed; ++i) {
          frame->vec[i] = stack[fnpos + 1 + i];
        }
        if (proto->has_rest) {
          RootScope scope(heap_);
          scope.add(Value::from_cell(frame));
          Value rest = Value::nil();
          for (std::size_t i = nargs; i-- > fixed;) {
            scope.add(rest);
            MV_ASSIGN_OR_RETURN(rest, cons(stack[fnpos + 1 + i], rest));
          }
          frame->vec[fixed] = rest;
        }
        Cell* const old_env = cur.env;
        const bool old_poolable = cur.poolable;
        stack.truncate(cur.stack_base);
        cur.proto = proto;
        cur.env = frame;
        cur.closure = cl;
        cur.ip = 0;
        cur.poolable = !proto->frame_escapes;
        if (old_poolable) heap_.recycle_env_frame(old_env);
        load_frame();
        break;
      }

      case Op::kReturn: {
        const Value result = stack.back();
        Value out;
        if (do_return(result, &out)) return out;
        break;
      }

      case Op::kCons: {
        const std::size_t n = stack.size();
        // Operands stay on the (rooted) stack through the allocation.
        MV_ASSIGN_OR_RETURN(const Value pair,
                            cons(stack[n - 2], stack[n - 1]));
        stack.truncate(n - 2);
        stack.push_back(pair);
        break;
      }

      case Op::kInitSlots: {
        Cell* const frame = fr->env;
        for (std::int32_t i = 0; i < insn.b; ++i) {
          frame->vec[static_cast<std::size_t>(insn.a + i)] =
              Value::unspecified();
        }
        heap_.write_barrier(frame);
        break;
      }

      case Op::kNameIfAnon: {
        const Value v = stack.back();
        if (v.is_cell() && v.cell->type == Cell::Type::kClosure &&
            v.cell->proc_name.empty()) {
          v.cell->proc_name = sym_name(static_cast<SymId>(insn.a));
        }
        break;
      }

      case Op::kCaseMatch: {
        const Value key = stack.back();
        bool hit = false;
        for (Value d = consts[static_cast<std::size_t>(insn.a)];
             !hit && d.is_pair(); d = d.cell->cdr) {
          hit = value_eqv(key, d.cell->car);
        }
        stack.push_back(Value::boolean(hit));
        break;
      }
    }
  }
}

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
  heap_.write_barrier(frame);
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
    ctx.stack.truncate(entry);
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
    ctx.stack.truncate(entry);
    return st;
  }
  Result<Value> result = vm_run(ctx, floor);
  if (!result.is_ok()) {
    ctx.frames.resize(floor);
    ctx.stack.truncate(entry);
  }
  return result;
}

}  // namespace mv::scheme
