#include "runtime/scheme/engine.hpp"

#include <algorithm>
#include <cmath>

#include "support/log.hpp"
#include "support/strings.hpp"

namespace mv::scheme {

namespace {
// SIGALRM ticks observed (per-process would be cleaner; the simulator runs
// one engine per process).
thread_local std::uint64_t g_alarm_ticks = 0;
// The itimer period: the SIGALRM cadence of the runtime's green threads.
constexpr std::uint64_t kTimerUs = 20000;
}  // namespace

Engine::Engine(ros::SysIface& sys, Config config)
    : sys_(&sys), config_(config), heap_(sys, config.heap) {
  // Pre-intern special-form symbols.
  s_quote_ = intern("quote");
  s_if_ = intern("if");
  s_define_ = intern("define");
  s_set_ = intern("set!");
  s_lambda_ = intern("lambda");
  s_begin_ = intern("begin");
  s_let_ = intern("let");
  s_let_star_ = intern("let*");
  s_letrec_ = intern("letrec");
  s_cond_ = intern("cond");
  s_case_ = intern("case");
  s_else_ = intern("else");
  s_and_ = intern("and");
  s_or_ = intern("or");
  s_when_ = intern("when");
  s_unless_ = intern("unless");
  s_do_ = intern("do");
  s_quasiquote_ = intern("quasiquote");
  s_unquote_ = intern("unquote");
  s_arrow_ = intern("=>");
  s_named_lambda_ = intern("named-lambda");
}

SymId Engine::intern(const std::string& name) {
  const auto it = sym_ids_.find(name);
  if (it != sym_ids_.end()) return it->second;
  const SymId id = static_cast<SymId>(sym_names_.size());
  sym_names_.push_back(name);
  globals_.emplace_back();
  sym_ids_[name] = id;
  return id;
}

ros::SysIface& Engine::sys() {
  const Fiber* fiber = Fiber::current();
  for (auto it = thread_ifaces_.rbegin(); it != thread_ifaces_.rend(); ++it) {
    if (it->first == fiber) return *it->second;
  }
  return *sys_;
}

Engine::ThreadIfaceScope::ThreadIfaceScope(Engine& engine,
                                           ros::SysIface& iface)
    : engine_(&engine) {
  engine_->thread_ifaces_.emplace_back(Fiber::current(), &iface);
}

Engine::ThreadIfaceScope::~ThreadIfaceScope() {
  const Fiber* fiber = Fiber::current();
  auto& v = engine_->thread_ifaces_;
  for (std::size_t i = v.size(); i-- > 0;) {
    if (v[i].first == fiber) {
      v.erase(v.begin() + static_cast<long>(i));
      return;
    }
  }
}

Status Engine::init() {
  if (initialized_) return Status::ok();
  heap_.set_sys_provider([this]() -> ros::SysIface& { return sys(); });
  MV_RETURN_IF_ERROR(heap_.init());
  heap_.set_extra_root_marker([this](const Heap::RootVisitor& visit) {
    for (const GlobalSlot& g : globals_) visit(g.value);
    for (const auto& [id, v] : thread_thunks_) visit(v);
    if (global_env_ != nullptr) visit(Value::from_cell(global_env_));
    // Bytecode engine roots: compiled literals plus every live VM
    // context's operand stack and frame chain.
    for (const auto& proto : protos_) {
      for (const Value& c : proto->consts) visit(c);
    }
    for (const auto& [fiber, ctx] : vm_contexts_) {
      for (const Value& v : ctx->stack) visit(v);
      for (const VmFrame& fr : ctx->frames) {
        if (fr.env != nullptr) visit(Value::from_cell(fr.env));
        if (fr.closure != nullptr) visit(Value::from_cell(fr.closure));
      }
    }
  });
  MV_ASSIGN_OR_RETURN(global_env_, make_env(nullptr));
  // Tick cadence in VM instructions, scaled so both engines tick every
  // tick_every_evals * eval_cycles guest cycles.
  vm_tick_every_ = std::max<std::uint64_t>(
      1, config_.tick_every_evals * config_.eval_cycles /
             std::max<std::uint64_t>(1, config_.vm_insn_cycles));

  register_builtins();

  // The runtime's green-thread scheduler: SIGALRM at a fixed period drives
  // preemption checks ("The timer, getrusage() calls, and polling activity
  // is used to support Scheme-level cooperative threads in the run-time").
  if (config_.install_timer) {
    MV_RETURN_IF_ERROR(sys().sigaction(
        ros::kSigAlrm,
        [](int, std::uint64_t, ros::SysIface&) { ++g_alarm_ticks; }));
    MV_RETURN_IF_ERROR(sys().setitimer(kTimerUs));
  }

  if (config_.load_boot_files) {
    MV_RETURN_IF_ERROR(load_boot_collection());
  }
  MV_RETURN_IF_ERROR(eval_prelude());
  initialized_ = true;
  return Status::ok();
}

Status Engine::load_boot_collection() {
  // Package management via the filesystem: probe and load the collection
  // tree, like Racket's boot sequence walking collects/.
  static const char* const kBootPaths[] = {
      "/collects/vessel/boot.vsl",
      "/collects/vessel/base.vsl",
      "/collects/vessel/list.vsl",
      "/collects/vessel/string.vsl",
      "/collects/vessel/math.vsl",
  };
  for (const char* path : kBootPaths) {
    auto st = sys().stat(path);
    if (!st) continue;  // absent collections are skipped (still stat'ed)
    MV_RETURN_IF_ERROR(load_path(path));
  }
  return Status::ok();
}

Status Engine::load_path(const std::string& path) {
  auto fd = sys().open(path, ros::kORdOnly);
  if (!fd) return fd.status();
  auto st = sys().stat(path);
  if (!st) return st.status();
  std::string src(st->size, '\0');
  auto n = sys().read(*fd, src.data(), src.size());
  MV_RETURN_IF_ERROR(sys().close(*fd));
  if (!n) return n.status();
  src.resize(*n);
  return eval_string(src).status();
}

Status Engine::eval_prelude() {
  // Library forms kept in Scheme (the parts of the "collection" every
  // program needs even when no boot files are installed).
  static const char kPrelude[] = R"PRELUDE(
(define (caar p) (car (car p)))
(define (cadr p) (car (cdr p)))
(define (cdar p) (cdr (car p)))
(define (cddr p) (cdr (cdr p)))
(define (caddr p) (car (cddr p)))
(define (cadddr p) (car (cdr (cddr p))))
(define (list-tail l k) (if (= k 0) l (list-tail (cdr l) (- k 1))))
(define (list-ref l k) (car (list-tail l k)))
(define (second l) (cadr l))
(define (third l) (caddr l))
(define (last-pair l) (if (pair? (cdr l)) (last-pair (cdr l)) l))
(define (memq x l)
  (cond ((null? l) #f)
        ((eq? x (car l)) l)
        (else (memq x (cdr l)))))
(define (member x l)
  (cond ((null? l) #f)
        ((equal? x (car l)) l)
        (else (member x (cdr l)))))
(define (assq x l)
  (cond ((null? l) #f)
        ((eq? x (caar l)) (car l))
        (else (assq x (cdr l)))))
(define (assoc x l)
  (cond ((null? l) #f)
        ((equal? x (caar l)) (car l))
        (else (assoc x (cdr l)))))
(define (map1 f l)
  (if (null? l) '() (cons (f (car l)) (map1 f (cdr l)))))
(define (map f l . more)
  (if (null? more)
      (map1 f l)
      (if (null? l) '()
          (cons (apply f (cons (car l) (map1 car more)))
                (apply map (cons f (cons (cdr l) (map1 cdr more))))))))
(define (for-each f l)
  (if (null? l) #t (begin (f (car l)) (for-each f (cdr l)))))
(define (filter pred l)
  (cond ((null? l) '())
        ((pred (car l)) (cons (car l) (filter pred (cdr l))))
        (else (filter pred (cdr l)))))
(define (fold-left f acc l)
  (if (null? l) acc (fold-left f (f acc (car l)) (cdr l))))
(define (iota n)
  (define (loop i) (if (= i n) '() (cons i (loop (+ i 1)))))
  (loop 0))
(define (vector->list v)
  (define (loop i)
    (if (= i (vector-length v)) '() (cons (vector-ref v i) (loop (+ i 1)))))
  (loop 0))
(define (list->vector l)
  (define v (make-vector (length l) 0))
  (define (loop i rest)
    (if (null? rest) v
        (begin (vector-set! v i (car rest)) (loop (+ i 1) (cdr rest)))))
  (loop 0 l))
(define (string-join parts sep)
  (cond ((null? parts) "")
        ((null? (cdr parts)) (car parts))
        (else (string-append (car parts) sep (string-join (cdr parts) sep)))))
(define (1+ n) (+ n 1))
(define (1- n) (- n 1))
)PRELUDE";
  return eval_string(kPrelude).status();
}

Result<int> Engine::spawn_interpreter_thread(Value thunk) {
  const int id = next_thunk_id_++;
  thread_thunks_[id] = thunk;  // GC root until the thread completes
  auto tid = sys().thread_create([this, id](ros::SysIface& child) {
    // All of this thread's OS interaction goes through its own interface
    // (its own nested AeroKernel thread when hybridized).
    ThreadIfaceScope scope(*this, child);
    const auto it = thread_thunks_.find(id);
    if (it == thread_thunks_.end()) return;
    auto r = apply_value(it->second, {});
    if (!r) {
      (void)child.write_str(2, "thread error: " + r.status().to_string() +
                                   "\n");
    }
    (void)flush();
    thread_thunks_.erase(id);
  });
  if (!tid) {
    thread_thunks_.erase(id);
    return tid.status();
  }
  return *tid;
}

// --- allocation helpers ------------------------------------------------------

Result<Value> Engine::cons(Value car, Value cdr) {
  RootScope scope(heap_);
  scope.add(car);
  scope.add(cdr);
  MV_ASSIGN_OR_RETURN(Cell* const cell, heap_.alloc(Cell::Type::kPair));
  cell->car = car;
  cell->cdr = cdr;
  return Value::from_cell(cell);
}

Result<Value> Engine::make_string(std::string s) {
  MV_ASSIGN_OR_RETURN(Cell* const cell, heap_.alloc(Cell::Type::kString));
  cell->str = std::move(s);
  return Value::from_cell(cell);
}

Result<Value> Engine::make_vector(std::size_t n, Value fill) {
  RootScope scope(heap_);
  scope.add(fill);
  MV_ASSIGN_OR_RETURN(Cell* const cell, heap_.alloc(Cell::Type::kVector));
  cell->vec.assign(n, fill);
  return Value::from_cell(cell);
}

Result<Value> Engine::make_builtin(std::string name, BuiltinFn fn) {
  MV_ASSIGN_OR_RETURN(Cell* const cell, heap_.alloc(Cell::Type::kBuiltin));
  cell->proc_name = std::move(name);
  cell->builtin = std::move(fn);
  return Value::from_cell(cell);
}

Result<Cell*> Engine::make_env(Cell* parent) {
  MV_ASSIGN_OR_RETURN(Cell* const cell, heap_.alloc(Cell::Type::kEnv));
  cell->parent_env = parent;
  return cell;
}

Result<Value> Engine::make_list(std::span<const Value> items) {
  RootScope scope(heap_);
  Value list = Value::nil();
  for (std::size_t i = items.size(); i-- > 0;) {
    scope.add(list);
    MV_ASSIGN_OR_RETURN(list, cons(items[i], list));
  }
  return list;
}

// --- environments ---------------------------------------------------------------

Status Engine::unbound_error(SymId sym) const {
  return err(Err::kNoEnt, "unbound variable: " + sym_name(sym));
}

Status Engine::unbound_set_error(SymId sym) const {
  return err(Err::kNoEnt, "set!: unbound variable " + sym_name(sym));
}

Status Engine::env_define(Cell* env, SymId sym, Value v) {
  if (env == global_env_ || env == nullptr) {
    bind_global(sym, v);
    return Status::ok();
  }
  heap_.write_barrier(env);
  for (auto& [s, existing] : env->bindings) {
    if (s == sym) {
      existing = v;
      return Status::ok();
    }
  }
  env->bindings.emplace_back(sym, v);
  return Status::ok();
}

Status Engine::env_set(Cell* env, SymId sym, Value v) {
  for (Cell* e = env; e != nullptr; e = e->parent_env) {
    if (e == global_env_) break;
    for (auto& [s, existing] : e->bindings) {
      if (s == sym) {
        heap_.write_barrier(e);
        existing = v;
        return Status::ok();
      }
    }
  }
  Value* const slot = global_slot(sym);
  if (slot == nullptr) return unbound_set_error(sym);
  *slot = v;
  return Status::ok();
}

Result<Value> Engine::env_lookup(Cell* env, SymId sym) {
  for (Cell* e = env; e != nullptr; e = e->parent_env) {
    if (e == global_env_) break;
    for (const auto& [s, v] : e->bindings) {
      if (s == sym) return v;
    }
  }
  if (const Value* slot = global_slot(sym)) return *slot;
  return unbound_error(sym);
}

void Engine::define_builtin(const std::string& name, BuiltinFn fn) {
  auto b = make_builtin(name, std::move(fn));
  if (b) bind_global(intern(name), *b);
}

// --- printing --------------------------------------------------------------------

namespace {
std::string format_real(double d) {
  // Range check first: converting NaN, inf or a huge flonum to an integer
  // is undefined.
  if (std::abs(d) < 1e15 && d == static_cast<std::int64_t>(d)) {
    return strfmt("%.1f", d);
  }
  std::string s = strfmt("%.9g", d);
  return s;
}
}  // namespace

std::string Engine::to_display(const Value& v) const {
  switch (v.tag) {
    case Value::Tag::kNil: return "()";
    case Value::Tag::kUnspecified: return "";
    case Value::Tag::kEof: return "#<eof>";
    case Value::Tag::kBool: return v.b ? "#t" : "#f";
    case Value::Tag::kInt: return strfmt("%lld", static_cast<long long>(v.i));
    case Value::Tag::kReal: return format_real(v.d);
    case Value::Tag::kChar: return std::string(1, v.c);
    case Value::Tag::kSym: return sym_name(v.sym);
    case Value::Tag::kCell: break;
  }
  const Cell* c = v.cell;
  switch (c->type) {
    case Cell::Type::kString:
      return c->str;
    case Cell::Type::kPair: {
      std::string out = "(";
      Value cur = v;
      bool first = true;
      while (cur.is_pair()) {
        if (!first) out += " ";
        first = false;
        out += to_display(cur.cell->car);
        cur = cur.cell->cdr;
      }
      if (!cur.is_nil()) {
        out += " . ";
        out += to_display(cur);
      }
      return out + ")";
    }
    case Cell::Type::kVector: {
      std::string out = "#(";
      for (std::size_t i = 0; i < c->vec.size(); ++i) {
        if (i > 0) out += " ";
        out += to_display(c->vec[i]);
      }
      return out + ")";
    }
    case Cell::Type::kClosure:
      return "#<procedure:" +
             (c->proc_name.empty() ? "anonymous" : c->proc_name) + ">";
    case Cell::Type::kBuiltin:
      return "#<procedure:" + c->proc_name + ">";
    case Cell::Type::kEnv:
      return "#<environment>";
    case Cell::Type::kFree:
      return "#<freed>";
  }
  return "#<unknown>";
}

std::string Engine::to_write(const Value& v) const {
  if (v.tag == Value::Tag::kChar) {
    if (v.c == ' ') return "#\\space";
    if (v.c == '\n') return "#\\newline";
    return strfmt("#\\%c", v.c);
  }
  if (v.is_string()) {
    std::string out = "\"";
    for (const char c : v.cell->str) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out + "\"";
  }
  if (v.is_pair()) {
    std::string out = "(";
    Value cur = v;
    bool first = true;
    while (cur.is_pair()) {
      if (!first) out += " ";
      first = false;
      out += to_write(cur.cell->car);
      cur = cur.cell->cdr;
    }
    if (!cur.is_nil()) {
      out += " . ";
      out += to_write(cur);
    }
    return out + ")";
  }
  return to_display(v);
}

// --- output ------------------------------------------------------------------------

Status Engine::out(const std::string& text) {
  out_buf_ += text;
  // stdio-style flushing: a full buffer goes out as one write().
  if (out_buf_.size() >= 4096) return flush();
  return Status::ok();
}

Status Engine::flush() {
  if (out_buf_.empty()) return Status::ok();
  auto n = sys().write_str(1, out_buf_);
  out_buf_.clear();
  return n.status();
}

// --- stepping / ticks -----------------------------------------------------------------

void Engine::count_step() {
  ++evals_;
  pending_charge_ += config_.eval_cycles;
  if (pending_charge_ >= 64 * config_.eval_cycles) {
    sys().charge_user(pending_charge_);
    pending_charge_ = 0;
  }
  if (evals_ >= next_tick_) {
    next_tick_ = evals_ + config_.tick_every_evals;
    tick();
  }
}

void Engine::tick() {
  ++ticks_;
  // The scheduler quantum check: poll for ready I/O; periodically sample
  // resource usage (Fig 12's poll / getrusage traffic).
  (void)sys().poll0();
  if (ticks_ % 4 == 0) (void)sys().getrusage();
  (void)flush();
}

// --- top-level drivers --------------------------------------------------------------

Result<Value> Engine::eval_string(const std::string& src) {
  MV_ASSIGN_OR_RETURN(const std::vector<Value> forms, reader_.read_all(src));
  Value result = Value::unspecified();
  RootScope scope(heap_);
  // Root every form up front: evaluating form k must not collect the ASTs of
  // forms k+1..n.
  for (const Value& form : forms) scope.add(form);
  for (const Value& form : forms) {
    MV_ASSIGN_OR_RETURN(result, eval_toplevel(form));
  }
  return result;
}

Result<std::string> Engine::eval_to_string(const std::string& src) {
  MV_ASSIGN_OR_RETURN(const Value v, eval_string(src));
  return to_display(v);
}

int Engine::repl() {
  // The interactive interface: identical under native and HRT execution.
  (void)sys().write_str(1, "vessel> ");
  (void)flush();
  std::string input;
  char buf[256];
  for (;;) {
    auto n = sys().read(0, buf, sizeof(buf));
    if (!n || *n == 0) break;  // EOF
    input.append(buf, *n);
    // Evaluate complete lines.
    std::size_t nl;
    while ((nl = input.find('\n')) != std::string::npos) {
      const std::string line = input.substr(0, nl);
      input.erase(0, nl + 1);
      if (line == ",exit" || line == "(exit)") {
        (void)flush();
        return 0;
      }
      if (!std::string_view(trim(line)).empty()) {
        auto result = eval_to_string(line);
        if (result) {
          (void)out(*result + "\n");
        } else {
          (void)out("error: " + result.status().to_string() + "\n");
        }
      }
      (void)out("vessel> ");
      (void)flush();
    }
  }
  (void)flush();
  return 0;
}

int vessel_main(ros::SysIface& sys, const std::string& batch_source,
                bool use_launcher_thread, const Engine::Config& config) {
  // "Our port of Racket takes the form of an instance of the Racket engine
  // embedded into a simple C program... The C program launches a pthread
  // that in turn starts the engine."
  int exit_code = 0;
  auto engine_body = [&exit_code, &batch_source, &config](ros::SysIface& tsys) {
    Engine engine(tsys, config);
    const Status up = engine.init();
    if (!up.is_ok()) {
      (void)tsys.write_str(2, "vessel: init failed: " + up.to_string() + "\n");
      exit_code = 70;
      return;
    }
    if (batch_source.empty()) {
      exit_code = engine.repl();
    } else {
      auto r = engine.eval_string(batch_source);
      (void)engine.flush();
      if (!r) {
        (void)tsys.write_str(2, "vessel: " + r.status().to_string() + "\n");
        exit_code = 1;
      }
    }
  };
  if (use_launcher_thread) {
    auto tid = sys.thread_create(engine_body);
    if (!tid) return 70;
    (void)sys.thread_join(*tid);
  } else {
    engine_body(sys);
  }
  return exit_code;
}

}  // namespace mv::scheme
