#pragma once

// The Vessel Scheme engine: the paper's Racket stand-in. A complete
// interpreter (reader, evaluator with proper tail calls, numeric/string/
// vector/list builtins) embedded into a C program exactly the way the
// paper's port embeds the Racket engine: construct with a SysIface, call
// init(), then eval strings / load files / run the REPL. Because every OS
// interaction goes through SysIface, the engine runs unmodified in Native,
// Virtual, and Multiverse (HRT) configurations.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ros/guest.hpp"
#include "runtime/scheme/compile.hpp"
#include "runtime/scheme/gc.hpp"
#include "runtime/scheme/reader.hpp"
#include "runtime/scheme/value.hpp"
#include "runtime/scheme/vm.hpp"
#include "support/result.hpp"

namespace mv::scheme {

class Engine {
 public:
  // Which execution engine runs toplevel forms. The tree-walking
  // interpreter is the reference semantics; the bytecode VM must produce
  // byte-identical output (enforced by the twin-run tests).
  enum class Exec {
    kInterpreter,
    kBytecodeVm,
  };

  struct Config {
    Heap::Config heap;
    Exec exec = Exec::kInterpreter;
    // Guest compute charged per evaluator step (batched).
    std::uint64_t eval_cycles = 150;
    // Guest compute charged per VM instruction. VM instruction counts track
    // interpreter step counts roughly 1:1 over the fig13 suite, so the
    // eval_cycles/vm_insn_cycles ratio is the modeled speedup.
    std::uint64_t vm_insn_cycles = 35;
    // The runtime's cooperative scheduler tick: every N evaluator steps the
    // engine polls for events and checks timers (Racket's thread scheduler
    // does the same; this produces Fig 12's poll/getrusage/timer traffic).
    std::uint64_t tick_every_evals = 32768;
    bool install_timer = true;
    bool load_boot_files = true;  // stat/open/read/close the collection tree
  };

  Engine(ros::SysIface& sys, Config config);
  explicit Engine(ros::SysIface& sys) : Engine(sys, Config{}) {}

  // Engine bring-up: GC arena + barrier handler, SIGALRM + itimer, boot
  // file loading, prelude evaluation.
  Status init();

  // --- evaluation --------------------------------------------------------
  Result<Value> eval(Value expr, Cell* env);
  // Evaluate one toplevel form through the configured engine (interpreter
  // or compile + VM).
  Result<Value> eval_toplevel(Value form);
  // Non-tail application (used by apply/map and embedding code).
  Result<Value> apply_value(Value fn, Args args);
  // Evaluate all forms; returns the last result.
  Result<Value> eval_string(const std::string& src);
  // Convenience for tests: evaluate and render with display semantics.
  Result<std::string> eval_to_string(const std::string& src);
  Status load_path(const std::string& path);

  // Interactive REPL over guest stdin/stdout; returns the exit code.
  int repl();

  // --- symbols --------------------------------------------------------------
  SymId intern(const std::string& name);
  [[nodiscard]] const std::string& sym_name(SymId id) const {
    return sym_names_.at(id);
  }

  // --- allocation helpers ------------------------------------------------------
  Result<Value> cons(Value car, Value cdr);
  Result<Value> make_string(std::string s);
  Result<Value> make_vector(std::size_t n, Value fill);
  Result<Value> make_builtin(std::string name, BuiltinFn fn);
  Result<Cell*> make_env(Cell* parent);
  // Build a Scheme list from host values (reverse-safe, rooted).
  Result<Value> make_list(std::span<const Value> items);

  // --- environments ---------------------------------------------------------------
  Status env_define(Cell* env, SymId sym, Value v);
  Status env_set(Cell* env, SymId sym, Value v);
  Result<Value> env_lookup(Cell* env, SymId sym);
  void define_builtin(const std::string& name, BuiltinFn fn);

  // --- printing --------------------------------------------------------------------
  [[nodiscard]] std::string to_display(const Value& v) const;
  [[nodiscard]] std::string to_write(const Value& v) const;

  // --- buffered guest output ----------------------------------------------------------
  Status out(const std::string& text);
  Status flush();

  // --- interpreter threads ---------------------------------------------------
  // (spawn-thread thunk) creates a runtime thread through the guest pthread
  // layer — in native mode a Linux clone; hybridized, a nested AeroKernel
  // thread ("legacy threading functionality automatically maps to the
  // corresponding AeroKernel functionality", Sec 3.3). Each interpreter
  // thread runs with its own SysIface; sys() returns the current fiber's.
  class ThreadIfaceScope {
   public:
    ThreadIfaceScope(Engine& engine, ros::SysIface& iface);
    ~ThreadIfaceScope();
    ThreadIfaceScope(const ThreadIfaceScope&) = delete;
    ThreadIfaceScope& operator=(const ThreadIfaceScope&) = delete;

   private:
    Engine* engine_;
  };

  // Start `thunk` (a zero-argument procedure) on a new runtime thread;
  // returns the guest tid. The thunk stays GC-rooted until the thread ends.
  Result<int> spawn_interpreter_thread(Value thunk);

  // --- accessors -----------------------------------------------------------------------
  [[nodiscard]] Heap& heap() noexcept { return heap_; }
  [[nodiscard]] ros::SysIface& sys();
  [[nodiscard]] std::uint64_t eval_steps() const noexcept { return evals_; }
  // Proto table for the bytecode compiler/VM. unique_ptr elements keep
  // Proto addresses stable across nested compilation (a `load` during VM
  // execution appends protos while frames hold pointers into the table).
  [[nodiscard]] std::vector<std::unique_ptr<Proto>>& protos() noexcept {
    return protos_;
  }
  // Deepest frame chain any VM context has reached (tail-call tests).
  [[nodiscard]] std::uint64_t vm_max_frame_depth() const noexcept;
  [[nodiscard]] const VmStats& vm_stats() const noexcept { return vm_stats_; }

 private:
  friend class Reader;

  void register_builtins();           // builtins.cpp
  Status load_boot_collection();      // the startup syscall profile
  Status eval_prelude();
  void tick();                        // scheduler tick (poll/getrusage)
  void count_step();
  // VM steps until the next one that charges a batch or ticks (vm.cpp).
  [[nodiscard]] std::uint64_t vm_steps_to_event() const;

  // The bound global `sym`, or null.
  Value* global_slot(SymId sym) {
    GlobalSlot& g = globals_[sym];
    return g.bound ? &g.value : nullptr;
  }
  void bind_global(SymId sym, Value v) {
    globals_[sym] = GlobalSlot{v, true};
  }
  [[nodiscard]] Status unbound_error(SymId sym) const;
  [[nodiscard]] Status unbound_set_error(SymId sym) const;

  // Bytecode VM internals (vm.cpp).
  VmContext& current_vm_context();
  Result<Value> vm_run(VmContext& ctx, std::size_t frame_floor);
  Result<Value> run_toplevel_proto(int proto_idx);
  Result<Value> vm_apply(Value fn, Args args);
  // Call setup shared by kCall dispatch and vm_apply: the operand stack
  // holds [closure, arg0..argN-1]; replaces them with a new frame record.
  Status vm_push_call(VmContext& ctx, std::size_t nargs);
  // Binds the nargs operands above the callee's slot `fnpos` to `frame`'s
  // parameter slots, those past proto's fixed ones as a rest list. They
  // stay on the operand stack, rooted, for the caller to drop.
  Status vm_bind_args(VmContext& ctx, Cell* frame, const Proto& proto,
                      std::size_t fnpos, std::size_t nargs);

  // Evaluator internals (eval.cpp).
  Result<Value> eval_quasiquote(Value tmpl, Cell* env, int depth);
  Result<Value> eval_args(Value list, Cell* env, std::vector<Value>* out);
  Result<Value> apply_closure_env(Cell* closure, Args args, Cell** env_out);
  Result<Value> eval_body_tail(Value body, Cell* env, Value* tail_expr,
                               Cell** tail_env);

  ros::SysIface* sys_;
  Config config_;
  Heap heap_;
  Reader reader_{*this};
  std::unordered_map<std::string, SymId> sym_ids_;
  std::vector<std::string> sym_names_;
  // Global bindings, one slot per interned symbol, indexed by SymId. The
  // VM's global instructions and the tree-walker's env_lookup/env_set
  // share them.
  struct GlobalSlot {
    Value value;
    bool bound = false;
  };
  std::vector<GlobalSlot> globals_;
  // Per-fiber SysIface bindings for interpreter threads.
  std::vector<std::pair<const Fiber*, ros::SysIface*>> thread_ifaces_;
  // Thunks of live interpreter threads (GC roots until the thread finishes).
  std::unordered_map<int, Value> thread_thunks_;
  int next_thunk_id_ = 1;
  Cell* global_env_ = nullptr;  // an env cell chaining to the global table
  std::string out_buf_;
  std::uint64_t evals_ = 0;
  std::uint64_t pending_charge_ = 0;
  std::uint64_t next_tick_ = 0;
  std::uint64_t ticks_ = 0;
  bool initialized_ = false;

  // Bytecode engine state. One VmContext per fiber (interpreter threads
  // interleave at syscall block points), same discipline as the heap's
  // per-fiber shadow root stacks.
  std::vector<std::unique_ptr<Proto>> protos_;
  std::vector<std::pair<const Fiber*, std::unique_ptr<VmContext>>>
      vm_contexts_;
  VmStats vm_stats_;
  // Tick cadence in VM instructions, scaled so wall-clock poll/timer
  // traffic matches the interpreter's (tick_every_evals * eval_cycles
  // guest cycles between ticks in both engines).
  std::uint64_t vm_tick_every_ = 1;

  // Cached special-form symbols.
  SymId s_quote_, s_if_, s_define_, s_set_, s_lambda_, s_begin_, s_let_,
      s_let_star_, s_letrec_, s_cond_, s_case_, s_else_, s_and_, s_or_,
      s_when_, s_unless_, s_do_, s_named_lambda_, s_quasiquote_, s_unquote_,
      s_arrow_;
};

// Public helper: the "Racket port" main — an engine embedded in a C program
// (the paper: "an instance of the Racket engine embedded into a simple C
// program ... launches a pthread that in turn starts the engine"), runnable
// as REPL (no args) or batch (program text).
int vessel_main(ros::SysIface& sys, const std::string& batch_source,
                bool use_launcher_thread = true,
                const Engine::Config& config = {});

}  // namespace mv::scheme
