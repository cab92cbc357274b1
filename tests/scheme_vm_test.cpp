// Bytecode VM tests: the interpreter is the reference semantics, the VM
// must agree byte-for-byte on every observable output (the twin-run
// property), while using constant frame depth for tail calls and recycling
// pooled call frames. Also covers the fig13 benchmark suite in both Native
// and hybridized (HRT) configurations.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "multiverse/system.hpp"
#include "ros/linux.hpp"
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "support/rng.hpp"

#include "recording_iface.hpp"

namespace mv::scheme {
namespace {

Engine::Config vm_config() {
  Engine::Config cfg;
  cfg.exec = Engine::Exec::kBytecodeVm;
  return cfg;
}

// Runs one engine over `src` in a fresh native LinuxSim guest; returns the
// displayed result of the last form ("ERROR: ..." on failure).
class SchemeVmTest : public ::testing::Test {
 protected:
  std::string ev_with(const std::string& src, Engine::Config cfg) {
    std::string result;
    run_guest([&result, &src, cfg](ros::SysIface& sys) {
      Engine engine(sys, cfg);
      const Status up = engine.init();
      EXPECT_TRUE(up.is_ok()) << up.to_string();
      auto r = engine.eval_to_string(src);
      result = r.is_ok() ? *r : "ERROR: " + r.status().to_string();
      return 0;
    });
    return result;
  }

  std::string ev(const std::string& src) { return ev_with(src, vm_config()); }

  // Evaluates each source as its own toplevel evaluation in one engine;
  // returns each displayed result ("ERROR: ..." on failure).
  std::vector<std::string> ev_each(const std::vector<std::string>& srcs,
                                   Engine::Config cfg) {
    std::vector<std::string> results;
    run_guest([&results, &srcs, cfg](ros::SysIface& sys) {
      Engine engine(sys, cfg);
      const Status up = engine.init();
      EXPECT_TRUE(up.is_ok()) << up.to_string();
      for (const std::string& src : srcs) {
        auto r = engine.eval_to_string(src);
        results.push_back(r.is_ok() ? *r
                                    : "ERROR: " + r.status().to_string());
      }
      return 0;
    });
    return results;
  }

  // The twin-run property: interpreter and VM agree on the displayed
  // result. Returns the VM's answer for further assertions.
  std::string twin(const std::string& src) {
    const std::string oracle = ev_with(src, Engine::Config{});
    const std::string vm = ev_with(src, vm_config());
    EXPECT_EQ(oracle, vm) << "engines diverge on: " << src;
    return vm;
  }

  std::string stdout_with(const std::string& src, Engine::Config cfg) {
    run_guest([&src, cfg](ros::SysIface& sys) {
      Engine engine(sys, cfg);
      const Status up = engine.init();
      EXPECT_TRUE(up.is_ok()) << up.to_string();
      auto r = engine.eval_string(src);
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      (void)engine.flush();
      return 0;
    });
    return proc_->stdout_text;
  }

  void run_guest(std::function<int(ros::SysIface&)> guest) {
    proc_ = nullptr;
    linux_.reset();
    sched_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{1, 2, 1 << 28});
    sched_ = std::make_unique<Sched>();
    linux_ = std::make_unique<ros::LinuxSim>(
        *machine_, *sched_, ros::LinuxSim::Config{{0}, false});
    ASSERT_TRUE(install_boot_files(linux_->fs()).is_ok());
    auto proc = linux_->spawn("scheme", std::move(guest));
    ASSERT_TRUE(proc.is_ok());
    proc_ = *proc;
    const Status s = linux_->run_all();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<Sched> sched_;
  std::unique_ptr<ros::LinuxSim> linux_;
  ros::Process* proc_ = nullptr;
};

// --- core semantics, twin-run ----------------------------------------------

TEST_F(SchemeVmTest, LiteralsAndArithmetic) {
  EXPECT_EQ(twin("42"), "42");
  EXPECT_EQ(twin("(+ 1 2 3)"), "6");
  EXPECT_EQ(twin("(* 2.5 4)"), "10.0");
  EXPECT_EQ(twin("(- 10 (quotient 7 2))"), "7");
  EXPECT_EQ(twin("'(1 2 (3 . 4))"), "(1 2 (3 . 4))");
  EXPECT_EQ(twin("\"hi\""), "hi");
}

TEST_F(SchemeVmTest, LetForms) {
  EXPECT_EQ(twin("(let ((x 1) (y 2)) (+ x y))"), "3");
  // Plain let inits see the outer scope, not each other.
  EXPECT_EQ(twin("(define x 10) (let ((x 1) (y x)) y)"), "10");
  EXPECT_EQ(twin("(let* ((x 1) (y (+ x 1))) (* x y))"), "2");
  EXPECT_EQ(twin("(letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))"
                 "         (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))"
                 "  (even? 10))"),
            "#t");
  // Shadowing across nested contours.
  EXPECT_EQ(twin("(let ((x 1)) (let ((x 2)) x))"), "2");
  EXPECT_EQ(twin("(let ((x 1)) (+ (let ((x 2)) x) x))"), "3");
  // Duplicate names in one let: last binding wins (env_define overwrite).
  EXPECT_EQ(twin("(let ((x 1) (x 2)) x)"), "2");
}

TEST_F(SchemeVmTest, ConditionalForms) {
  EXPECT_EQ(twin("(if #f 'a)"), "");  // unspecified displays as empty
  EXPECT_EQ(twin("(cond (#f 1) (2) (else 3))"), "2");  // (cond (x)) yields x
  EXPECT_EQ(twin("(cond (#f 1))"), "");
  EXPECT_EQ(twin("(case 3 ((1 2) 'lo) ((3 4) 'mid) (else 'hi))"), "mid");
  EXPECT_EQ(twin("(case 9 ((1) 'one))"), "");
  EXPECT_EQ(twin("(and 1 2 #f 3)"), "#f");
  EXPECT_EQ(twin("(and)"), "#t");
  EXPECT_EQ(twin("(or #f 7 9)"), "7");
  EXPECT_EQ(twin("(or)"), "#f");
  EXPECT_EQ(twin("(when (> 2 1) 'yes)"), "yes");
  EXPECT_EQ(twin("(unless (> 2 1) 'no)"), "");
}

TEST_F(SchemeVmTest, DoLoops) {
  EXPECT_EQ(twin("(do ((i 0 (+ i 1)) (acc 0 (+ acc i)))"
                 "    ((= i 5) acc))"),
            "10");
  // Steps update simultaneously from pre-step values.
  EXPECT_EQ(twin("(do ((a 0 b) (b 1 (+ a b)) (n 0 (+ n 1)))"
                 "    ((= n 10) a))"),
            "55");
  // Variables without a step keep their value; body runs for effect.
  EXPECT_EQ(twin("(define v (make-vector 3 0))"
                 "(do ((i 0 (+ i 1)) (k 7)) ((= i 3) (vector-ref v 1))"
                 "  (vector-set! v i (* k i)))"),
            "7");
}

TEST_F(SchemeVmTest, NamedLetBothPaths) {
  // Jump-qualifying loop (self tail calls only, no closures).
  EXPECT_EQ(twin("(let loop ((i 0) (acc 1))"
                 "  (if (= i 5) acc (loop (+ i 1) (* acc 2))))"),
            "32");
  // Closure fallback: the loop name escapes as a value.
  EXPECT_EQ(twin("(define f (let loop ((i 0)) (lambda () i))) (f)"), "0");
  // Fallback: non-tail self call.
  EXPECT_EQ(twin("(let sum ((n 3)) (if (= n 0) 0 (+ n (sum (- n 1)))))"),
            "6");
  // Nested qualifying loops; inner jumps while outer stays live.
  EXPECT_EQ(twin("(let outer ((i 0) (total 0))"
                 "  (if (= i 3) total"
                 "      (outer (+ i 1)"
                 "             (let inner ((j 0) (s total))"
                 "               (if (= j 4) s (inner (+ j 1) (+ s 1)))))))"),
            "12");
  // Loop init exprs must not see the loop name.
  EXPECT_EQ(twin("(define loop 99) (let loop ((x loop)) x)"), "99");
}

TEST_F(SchemeVmTest, ClosuresAndHigherOrder) {
  EXPECT_EQ(twin("(define (adder n) (lambda (x) (+ x n)))"
                 "((adder 3) 4)"),
            "7");
  EXPECT_EQ(twin("(map (lambda (x) (* x x)) '(1 2 3))"), "(1 4 9)");
  EXPECT_EQ(twin("(apply + 1 2 '(3 4))"), "10");
  // Rest parameters.
  EXPECT_EQ(twin("(define (f a . rest) (cons a rest)) (f 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(twin("(define (g . all) all) (g)"), "()");
  // Counter with captured mutable state.
  EXPECT_EQ(twin("(define (mk) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))"
                 "(define c (mk)) (c) (c) (c)"),
            "3");
}

TEST_F(SchemeVmTest, InternalDefinesAndMutualRecursion) {
  EXPECT_EQ(twin("(define (f n)"
                 "  (define (even? k) (if (= k 0) #t (odd? (- k 1))))"
                 "  (define (odd? k) (if (= k 0) #f (even? (- k 1))))"
                 "  (even? n))"
                 "(f 8)"),
            "#t");
  EXPECT_EQ(twin("(let ((a 1)) (define b (+ a 1)) (* a b))"), "2");
}

TEST_F(SchemeVmTest, QuasiquoteMirrorsInterpreter) {
  EXPECT_EQ(twin("`(1 ,(+ 1 1) 3)"), "(1 2 3)");
  EXPECT_EQ(twin("`(a `(b ,(c ,(+ 1 2))))"), "(a (quasiquote (b (unquote (c 3)))))");
  EXPECT_EQ(twin("(define x 5) `(x . ,x)"), "(x . 5)");
}

TEST_F(SchemeVmTest, SetAndDefineSemantics) {
  EXPECT_EQ(twin("(define x 1) (set! x 2) x"), "2");
  EXPECT_EQ(twin("(define (f) (define y 1) (set! y 9) y) (f)"), "9");
  // Anonymous lambdas take their define's name (visible in arity errors).
  EXPECT_EQ(twin("(define h (lambda (a) a)) (h 1 2)"),
            "ERROR: EINVAL: h: expected 1 argument(s), got 2");
}

TEST_F(SchemeVmTest, ErrorMessagesMatchInterpreter) {
  EXPECT_EQ(twin("nope"), "ERROR: ENOENT: unbound variable: nope");
  EXPECT_EQ(twin("(set! nope 1)"),
            "ERROR: ENOENT: set!: unbound variable nope");
  EXPECT_EQ(twin("(1 2)"),
            "ERROR: EINVAL: application of non-procedure: 1 in (1 2)");
  EXPECT_EQ(twin("((lambda (x) x))"),
            "ERROR: EINVAL: procedure: expected 1 argument(s), got 0");
  EXPECT_EQ(twin("(unquote 1)"),
            "ERROR: EINVAL: unquote outside quasiquote");
  // `/` checks every operand, the first one too; its fast path declines
  // a non-number.
  const std::string not_number = "ERROR: EINVAL: /: expected number";
  EXPECT_EQ(twin("(/ 'x 2)"), not_number);
  EXPECT_EQ(twin("(/ \"abc\" 4)"), not_number);
  EXPECT_EQ(twin("(/ 'x 0)"), not_number);
  EXPECT_EQ(twin("(/ #\\a)"), not_number);
  EXPECT_EQ(twin("(/ 6 'x)"), not_number);
  EXPECT_EQ(twin("(/ 6 2 \"abc\")"), not_number);
  EXPECT_EQ(twin("(apply / (list 'x 2))"), not_number);
  EXPECT_EQ(twin("(/ 6 0)"), "ERROR: EINVAL: /: division by zero");
  EXPECT_EQ(twin("(list (/ 6 3) (/ 7 2) (/ 1 0.5) (/ 24 2 3) (/ 4))"),
            "(2 3.5 2.0 4 0.25)");
  // A size below zero or past the builtins' bound is an error, not a host
  // allocation failure.
  const std::string negative = "ERROR: EINVAL: make-string: negative size";
  EXPECT_EQ(twin("(make-string -1)"), negative);
  EXPECT_EQ(twin("(apply make-string '(-1))"), negative);
  const std::string huge =
      "ERROR: ERANGE: make-vector: size 4611686018427387904 out of range";
  EXPECT_EQ(twin("(make-vector 4611686018427387904 0)"), huge);
  EXPECT_EQ(twin("(apply make-vector '(4611686018427387904 0))"), huge);
  const std::string big =
      "ERROR: ERANGE: make-vector: size 100000000000 out of range";
  EXPECT_EQ(twin("(make-vector 100000000000 0)"), big);
  EXPECT_EQ(twin("(apply make-vector '(100000000000 0))"), big);
}

TEST_F(SchemeVmTest, InterpreterThreadsUnderVm) {
  // spawn-thread thunks apply through vm_apply; each fiber gets its own
  // VM context.
  EXPECT_EQ(twin("(define done 0)"
                 "(define t (spawn-thread (lambda () (set! done 41))))"
                 "(thread-join t)"
                 "(+ done 1)"),
            "42");
}

// --- VM-specific properties -------------------------------------------------

TEST_F(SchemeVmTest, MillionTailCallsConstantFrameDepth) {
  run_guest([](ros::SysIface& sys) -> int {
    Engine engine(sys, vm_config());
    EXPECT_TRUE(engine.init().is_ok());
    auto r = engine.eval_to_string(
        "(define (loop i) (if (= i 0) 'done (loop (- i 1))))"
        "(loop 1000000)");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (!r.is_ok()) return 1;
    EXPECT_EQ(*r, "done");
    // One toplevel frame per form plus the self-tail-calling loop frame:
    // depth must stay flat no matter the iteration count.
    EXPECT_LE(engine.vm_max_frame_depth(), 4u);
    return 0;
  });
}

TEST_F(SchemeVmTest, DeepMutualTailCallsConstantFrameDepth) {
  run_guest([](ros::SysIface& sys) -> int {
    Engine engine(sys, vm_config());
    EXPECT_TRUE(engine.init().is_ok());
    auto r = engine.eval_to_string(
        "(define (even? n) (if (= n 0) #t (odd? (- n 1))))"
        "(define (odd? n) (if (= n 0) #f (even? (- n 1))))"
        "(even? 200001)");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (!r.is_ok()) return 1;
    EXPECT_EQ(*r, "#f");
    EXPECT_LE(engine.vm_max_frame_depth(), 4u);
    return 0;
  });
}

TEST_F(SchemeVmTest, OperandStackRootsSurviveForcedCollection) {
  // gc_allocation_trigger = 1: every allocation runs a full collection, so
  // any value reachable only through the operand stack dies immediately if
  // the stack is not a root.
  Engine::Config cfg = vm_config();
  cfg.heap.gc_allocation_trigger = 1;
  cfg.heap.write_barriers = false;  // skip the mprotect storm; rooting is
                                    // what this test stresses
  cfg.load_boot_files = false;  // keep the per-alloc-collect init affordable
  EXPECT_EQ(
      ev_with("(define (build n)"
              "  (if (= n 0) '() (cons (make-vector 3 n) (build (- n 1)))))"
              "(length (build 20))",
              cfg),
      "20");
  EXPECT_EQ(ev_with("(car (cons (make-vector 4 1)"
                    "           (begin (collect-garbage)"
                    "                  (vector-ref (make-vector 9 4) 2))))",
                    cfg),
            "#(1 1 1 1)");
}

TEST_F(SchemeVmTest, PooledFramesAreRecycled) {
  run_guest([](ros::SysIface& sys) -> int {
    Engine engine(sys, vm_config());
    EXPECT_TRUE(engine.init().is_ok());
    // Non-escaping frames: every return recycles, every call after the
    // first reuses a pooled frame.
    auto r = engine.eval_to_string(
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
        "(fib 15)");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (!r.is_ok()) return 1;
    EXPECT_EQ(*r, "610");
    const GcStats& stats = engine.heap().stats();
    EXPECT_GT(stats.env_recycles, 500u);
    EXPECT_GT(stats.env_reuses, 500u);
    return 0;
  });
}

TEST_F(SchemeVmTest, EscapingFramesAreNotRecycled) {
  run_guest([](ros::SysIface& sys) -> int {
    Engine engine(sys, vm_config());
    EXPECT_TRUE(engine.init().is_ok());
    const std::uint64_t before = engine.heap().stats().env_recycles;
    // mk's frame is captured by the returned closure: recycling it would
    // corrupt the captured environment.
    auto r = engine.eval_to_string(
        "(define (mk n) (lambda () n))"
        "(define fs (map mk '(1 2 3)))"
        "(apply + (map (lambda (f) (f)) fs))");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (!r.is_ok()) return 1;
    EXPECT_EQ(*r, "6");
    (void)before;  // closure application still recycles poolable callers
    return 0;
  });
}

// --- fixnum edge cases -----------------------------------------------------

// Fixnums wrap modulo 2^64 in every operation, in both engines: no host
// SIGFPE, no signed-overflow UB. A flonum converts to an exact integer
// only when it truncates to a fixnum: NaN, the infinities and anything at
// or past 2^63 in magnitude are range errors, not an undefined conversion.
TEST_F(SchemeVmTest, FixnumEdgeCasesWrapWithoutTrapping) {
  EXPECT_EQ(twin("(quotient -9223372036854775808 -1)"),
            "-9223372036854775808");
  EXPECT_EQ(twin("(remainder -9223372036854775808 -1)"), "0");
  EXPECT_EQ(twin("(modulo -9223372036854775808 -1)"), "0");
  EXPECT_EQ(twin("(/ -9223372036854775808 -1)"), "-9223372036854775808");
  EXPECT_EQ(twin("(+ 9223372036854775807 1)"), "-9223372036854775808");
  EXPECT_EQ(twin("(+ 1 2 9223372036854775807)"), "-9223372036854775806");
  EXPECT_EQ(twin("(- -9223372036854775808 1)"), "9223372036854775807");
  EXPECT_EQ(twin("(- -9223372036854775808)"), "-9223372036854775808");
  EXPECT_EQ(twin("(* 9223372036854775807 2)"), "-2");
  EXPECT_EQ(twin("(* -9223372036854775808 -1)"), "-9223372036854775808");
  EXPECT_EQ(twin("(abs -9223372036854775808)"), "-9223372036854775808");
  EXPECT_EQ(twin("(expt 3 41)"), "-420491770248316829");
  EXPECT_EQ(twin("(expt 2 64)"), "0");
  // Huge exponents take log2(exponent) host steps, not exponent steps.
  EXPECT_EQ(twin("(expt 3 1000000000)"), "9215150800219179009");
  EXPECT_EQ(twin("(expt 7 9223372036854775807)"), "7905747460161236407");
  // Ordinary operands keep their exact answers.
  EXPECT_EQ(twin("(list (quotient -7 2) (remainder -7 2) (modulo -7 2)"
                 "      (modulo 7 -2) (abs -5) (expt 2 10))"),
            "(-3 -1 1 -1 5 1024)");
  // An out-of-range digit string is not an exact integer (the reader
  // rejects the same literal); it reads as a flonum.
  EXPECT_EQ(twin("(string->number \"99999999999999999999\")"), "1e+20");
  EXPECT_EQ(twin("(string->number \"-9223372036854775808\")"),
            "-9223372036854775808");
  EXPECT_EQ(twin("(list (exp 1000) (- (exp 1000)))"), "(inf -inf)");
  EXPECT_EQ(twin("(inexact->exact 1e300)"),
            "ERROR: ERANGE: inexact->exact: 1e+300 out of range");
  EXPECT_EQ(twin("(inexact->exact (exp 1000))"),
            "ERROR: ERANGE: inexact->exact: inf out of range");
  EXPECT_EQ(twin("(inexact->exact (- (exp 1000)))"),
            "ERROR: ERANGE: inexact->exact: -inf out of range");
  EXPECT_EQ(twin("(inexact->exact 9223372036854775808.0)"),
            "ERROR: ERANGE: inexact->exact: 9.22337e+18 out of range");
  // NaN's sign, and so its text, is the host's.
  EXPECT_EQ(twin("(inexact->exact (- (exp 1000) (exp 1000)))")
                .rfind("ERROR: ERANGE: inexact->exact: ", 0),
            0u);
  // Exact integers come back unchanged.
  EXPECT_EQ(twin("(list (inexact->exact -9223372036854775808.0)"
                 "      (inexact->exact 9223372036854774784.0)"
                 "      (inexact->exact -2.75) (inexact->exact 3.5)"
                 "      (inexact->exact 9223372036854775807))"),
            "(-9223372036854775808 9223372036854774784 -2 3"
            " 9223372036854775807)");
}

// --- builtin fast path -----------------------------------------------------

// The VM's inline primitives must agree with the generic builtins on every
// operand: results and error text, in tail and non-tail position. The
// tree-walker and `apply` (which never takes the fast path) are the oracles.
TEST_F(SchemeVmTest, FastPathPrimitivesMatchGenericBuiltins) {
  struct PrimCase {
    const char* name;
    int arity;
  };
  static const PrimCase kPrims[] = {
      {"vector-ref", 2}, {"+", 2},      {"vector-set!", 3}, {"=", 2},
      {"*", 2},          {"-", 2},      {"<", 2},           {"car", 1},
      {"cdr", 1},        {">", 2},      {"+", 3},           {"*", 3},
      {"-", 3},          {"/", 2},      {"modulo", 2},      {"even?", 1},
      {"floor", 1},      {"sqrt", 1},   {"inexact->exact", 1},
      {"null?", 1},      {"cons", 2},   {"string-set!", 3},
  };
  static const char* const kNumbers[] = {
      "0", "1", "-1", "7", "-13", "9223372036854775807",
      "-9223372036854775808", "2.5", "-0.0", "0.0", "1e300", "-2.0",
      "(exp 1000)", "(- (exp 1000))", "(- (exp 1000) (exp 1000))",
  };
  static const char* const kOthers[] = {
      "#\\a", "\"str\"", "'sym", "#t", "'()", "'(1 . 2)", "(list 1 2 3)",
      "(vector 10 20 30)", "(make-vector 0 0)", "car",
  };
  static const char* const kIndices[] = {
      "0", "1", "2", "3", "-1", "9223372036854775807",
      "-9223372036854775808", "1.0",
  };
  static const char* const kFixnums[] = {
      "0", "1", "-1", "2", "7", "-7", "-13", "64", "9223372036854775807",
      "-9223372036854775808",
  };
  static const char* const kFlonums[] = {
      "0.5", "-2.5", "3.0", "-0.0", "1e19", "-1e19", "9.2e18",
      "-9223372036854775808.0", "(exp 1000)", "(- (exp 1000))",
      "(- (exp 1000) (exp 1000))",
  };
  static const char* const kChars[] = {"#\\z", "#\\space", "#\\0"};
  Rng rng(20261017);
  const auto pick = [&rng](const auto& pool) {
    return std::string(pool[rng.below(std::size(pool))]);
  };
  const auto any = [&] {
    return rng.below(2) == 0 ? pick(kNumbers) : pick(kOthers);
  };
  std::vector<std::string> direct, oracle_apply;
  // The operand the prim's inline case expects at position k, with its
  // edge cases: zero divisors, negative and extreme fixnums, flonums with
  // no fixnum value, out-of-range indices.
  const auto usual_operand = [&](const std::string& name, int k) {
    if (name.rfind("vector", 0) == 0) {
      return k == 0 ? std::string("(vector 10 20 30)")
                    : k == 1 ? pick(kIndices) : any();
    }
    if (name == "string-set!") {
      return k == 0 ? std::string("(string-copy \"abc\")")
                    : k == 1 ? pick(kIndices) : pick(kChars);
    }
    if (name == "car" || name == "cdr") return std::string("(list 1 2 3)");
    if (name == "modulo" || name == "even?") return pick(kFixnums);
    if (name == "null?" || name == "cons") {
      return rng.below(2) == 0 ? std::string("'()") : any();
    }
    if (name == "floor" || name == "sqrt" || name == "inexact->exact") {
      return rng.below(2) == 0 ? pick(kFlonums) : pick(kNumbers);
    }
    return pick(kNumbers);
  };
  for (const PrimCase& prim : kPrims) {
    const std::string name = prim.name;
    for (int c = 0; c < 160; ++c) {
      const int arity = rng.below(8) == 0
                            ? static_cast<int>(rng.below(5))
                            : prim.arity;
      std::string binds, names;
      for (int k = 0; k < arity; ++k) {
        const bool usual = rng.below(4) != 0;
        const std::string operand = usual ? usual_operand(name, k) : any();
        std::string var = "a";
        var += std::to_string(k);
        binds += "(" + var + " " + operand + ")";
        names += " " + var;
      }
      const std::string call = "(" + name + names + ")";
      const std::string applied =
          "(apply " + name + " (list" + names + "))";
      // Tail position, then a non-tail call whose operands are displayed
      // afterwards (vector-set!'s store must land the same way).
      direct.push_back("(let* (" + binds + ") " + call + ")");
      direct.push_back("(let* (" + binds + ") (list " + call + names + "))");
      oracle_apply.push_back("(let* (" + binds + ") " + applied + ")");
      oracle_apply.push_back("(let* (" + binds + ") (list " + applied +
                             names + "))");
    }
  }
  const std::vector<std::string> vm = ev_each(direct, vm_config());
  const std::vector<std::string> walker = ev_each(direct, Engine::Config{});
  const std::vector<std::string> applied = ev_each(oracle_apply, vm_config());
  ASSERT_EQ(vm.size(), direct.size());
  ASSERT_EQ(walker.size(), direct.size());
  ASSERT_EQ(applied.size(), direct.size());
  int errors = 0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(vm[i], walker[i]) << direct[i];
    EXPECT_EQ(vm[i], applied[i]) << direct[i];
    errors += vm[i].rfind("ERROR: ", 0) == 0 ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GT(errors, 300);
  EXPECT_LT(errors, static_cast<int>(direct.size()) - 1500);
}

// The fast path follows the callee, not the name it is called through.
TEST_F(SchemeVmTest, FastPathFollowsRebinding) {
  EXPECT_EQ(twin("(define (car x) 'mine) (car '(1 2))"), "mine");
  EXPECT_EQ(twin("(set! + -) (+ 5 3)"), "2");
  EXPECT_EQ(twin("(define (f) (+ 5 3)) (f) (set! + *) (f)"), "15");
  EXPECT_EQ(twin("(let ((vector-ref list)) (vector-ref 1 2))"), "(1 2)");
  EXPECT_EQ(twin("(define plus +) (plus 40 2)"), "42");
  EXPECT_EQ(twin("(define (g op) (op 6 3)) (list (g +) (g -) (g <) (g cons))"),
            "(9 3 #f (6 . 3))");
}

// --- re-entrancy -----------------------------------------------------------

// Builtins that call back into the VM (sort's comparator, apply) while the
// callback grows the operand and frame stacks far past their size at the
// call. The builtin's arguments must not live in storage that moves.
TEST_F(SchemeVmTest, ReentrantBuiltinsSurviveStackGrowth) {
  const std::string deep =
      "(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))";
  EXPECT_EQ(ev(deep +
               "(sort (list 3 1 2) (lambda (a b) (deep 20000) (< a b)))"),
            "(1 2 3)");
  EXPECT_EQ(ev(deep + "(apply (lambda (a b) (+ (deep 20000) a b)) (list 1 2))"),
            "20003");
  EXPECT_EQ(ev(deep + "(apply deep (list 20000))"), "20000");
}

// --- simulated accounting --------------------------------------------------

// One VM program mixing builtin, closure, tail and self-tail calls, global
// set!/define, GC, barrier faults and unbound globals.
const char* const kAccountingForms[] = {
    "(define counter 0)"
    "(define (bump! k) (set! counter (+ counter k)))"
    "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))"
    "(define (count-down n acc)"
    "  (if (= n 0) acc (count-down (- n 1) (+ acc 1))))"
    "(define (ping n) (if (= n 0) 'ping (pong (- n 1))))"
    "(define (pong n) (if (= n 0) 'pong (ping (- n 1))))"
    "(define (sum-list l) (if (null? l) 0 (+ (car l) (sum-list (cdr l)))))"
    "(define v (make-vector 64 0))"
    "(define junk '())"
    "(do ((i 0 (+ i 1))) ((= i 100))"
    "  (set! junk (iota 300))"
    "  (vector-set! v (modulo i 64) (* i i))"
    "  (bump! (vector-ref v (modulo i 64))))"
    "(list (fact 20) (count-down 5000 0) (ping 3001)"
    "      (sum-list (iota 200)) counter"
    "      (apply + (map (lambda (x) (* 2 x)) (iota 50)))"
    "      (sort (list 5 3 9 1) <) (vector-ref v 39))",
    // Old vectors spread over several chunks: after the collection
    // protects them, each chunk's first store takes a barrier fault.
    "(define olds (map (lambda (i) (make-vector 2 i)) (iota 1500)))"
    "(collect-garbage)"
    "(for-each (lambda (o) (vector-set! o 1 'x)) olds)"
    "(vector-ref (car olds) 1)",
    "(define (probe) undefined-inside) (define late-global 1)",
    "(probe)",
    "(set! undefined-inside 2)",
    "(+ late-global never-seen-before)",
    "(set! also-never-seen 1)",
};

// The accounting program's instruction count, GC statistics and simulated
// core cycles are pinned: host-side changes to the VM must leave every
// simulated figure exactly as it is.
TEST_F(SchemeVmTest, SimulatedAccountingIsPinned) {
  std::vector<std::string> results;
  std::uint64_t steps = 0;
  GcStats gc;
  run_guest([&](ros::SysIface& sys) -> int {
    Engine engine(sys, vm_config());
    EXPECT_TRUE(engine.init().is_ok());
    for (const char* form : kAccountingForms) {
      auto r = engine.eval_to_string(form);
      results.push_back(r.is_ok() ? *r : "ERROR: " + r.status().to_string());
    }
    steps = engine.eval_steps();
    gc = engine.heap().stats();
    return 0;
  });
  const std::vector<std::string> want = {
      "(2432902008176640000 5000 pong 19900 328350 2450 (1 3 5 9) 1521)",
      "x",
      "",
      "ERROR: ENOENT: unbound variable: undefined-inside",
      "ERROR: ENOENT: set!: unbound variable undefined-inside",
      "ERROR: ENOENT: unbound variable: never-seen-before",
      "ERROR: ENOENT: set!: unbound variable also-never-seen",
  };
  EXPECT_EQ(results, want);
  EXPECT_EQ(steps, 626249u);
  EXPECT_EQ(gc.collections, 5u);
  EXPECT_EQ(gc.cells_allocated, 37906u);
  EXPECT_EQ(gc.cells_swept, 32172u);
  EXPECT_EQ(gc.chunks_mapped, 75u);
  EXPECT_EQ(gc.chunks_unmapped, 63u);
  EXPECT_EQ(gc.barrier_hits, 25u);
  EXPECT_EQ(gc.live_cells, 4030u);
  EXPECT_EQ(gc.env_reuses, 38089u);
  EXPECT_EQ(gc.env_recycles, 39793u);
  EXPECT_EQ(machine_->core(0).cycles(), 25871481u);
}

// The order of simulated events, not only their totals: the accounting
// program again, with every charge_user batch, syscall, signal and memory
// touch logged with the core's cycle count at entry. A charge batch moved
// across a syscall can leave the totals above as they are; it changes the
// log.
TEST_F(SchemeVmTest, SimulatedEventOrderIsPinned) {
  testutil::EventLog log;
  run_guest([&](ros::SysIface& sys) -> int {
    testutil::RecordingIface rec(sys, machine_->core(0), log);
    Engine engine(rec, vm_config());
    EXPECT_TRUE(engine.init().is_ok());
    for (const char* form : kAccountingForms) (void)engine.eval_string(form);
    return 0;
  });
  // The wrapper itself charges nothing.
  EXPECT_EQ(machine_->core(0).cycles(), 25871481u);
  EXPECT_EQ(log.events.size(), 3005u);
  EXPECT_EQ(log.fnv1a(), 1403048619298736196u);
}

// A config where every VM instruction is an event step: 64 cycles per
// instruction fill the 64 * 1-cycle charge batch, and the tick comes every
// instruction. A short program covering each call shape, allocation, a
// barrier fault, output and an error return.
TEST_F(SchemeVmTest, EveryInstructionAnEventStepIsPinned) {
  Engine::Config cfg = vm_config();
  cfg.eval_cycles = 1;
  cfg.vm_insn_cycles = 64;
  cfg.tick_every_evals = 1;
  cfg.load_boot_files = false;
  static const char* const kForms[] = {
      "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))"
      "(define (twice x) (* x 2))"
      "(define (via x) (twice x))"
      "(define v (make-vector 4 0))",
      "(display (build 5 '()))",
      "(collect-garbage)",
      "(vector-set! v 1 (apply + (list 1 2)))",
      "(list (via 21) (vector-ref v 1) (length (build 3 '())))",
      "(car 5)",
  };
  std::vector<std::string> results;
  std::uint64_t steps = 0;
  testutil::EventLog log;
  run_guest([&](ros::SysIface& sys) -> int {
    testutil::RecordingIface rec(sys, machine_->core(0), log);
    Engine engine(rec, cfg);
    EXPECT_TRUE(engine.init().is_ok());
    for (const char* form : kForms) {
      auto r = engine.eval_to_string(form);
      results.push_back(r.is_ok() ? *r : "ERROR: " + r.status().to_string());
    }
    (void)engine.flush();
    steps = engine.eval_steps();
    return 0;
  });
  const std::vector<std::string> want = {
      "", "", "", "", "(42 3 3)", "ERROR: EINVAL: car: expected pair",
  };
  EXPECT_EQ(results, want);
  EXPECT_EQ(proc_->stdout_text, "(1 2 3 4 5)");
  EXPECT_EQ(steps, 305u);
  EXPECT_EQ(machine_->core(0).cycles(), 552495u);
  EXPECT_EQ(log.events.size(), 765u);
  EXPECT_EQ(log.fnv1a(), 8944484109488063386u);
}

// --- fig13 suite byte-identity ---------------------------------------------

// The Fig 13 programs' builtin calls stay inline: how many of them take
// the generic builtin path instead, per program at test size under the
// Racket benchmarks' engine profile (bench/common.hpp's racket_profile).
// A call shape that falls off the inline path moves a count here, not
// only the host time.
TEST_F(SchemeVmTest, Fig13GenericBuiltinCallsArePinned) {
  Engine::Config cfg = vm_config();
  cfg.heap.gc_allocation_trigger = 8 * 1024;
  cfg.eval_cycles = 110;
  cfg.vm_insn_cycles = 26;
  std::vector<std::uint64_t> generic;
  for (int b = 0; b < kBenchCount; ++b) {
    const Bench bench = static_cast<Bench>(b);
    const std::string src =
        benchmark_source(bench, benchmark_test_size(bench));
    run_guest([&](ros::SysIface& sys) -> int {
      Engine engine(sys, cfg);
      EXPECT_TRUE(engine.init().is_ok());
      const auto r = engine.eval_string(src);
      EXPECT_TRUE(r.is_ok()) << benchmark_name(bench);
      generic.push_back(engine.vm_stats().generic_builtin_calls);
      return 0;
    });
  }
  // In Bench order. What is left is output (display, newline), setup
  // (make-vector, make-string, vector, expt, ...) and the fastas' `min`
  // and `substring` once per output line.
  const std::vector<std::uint64_t> want = {25, 10, 148, 150, 11, 5, 9};
  EXPECT_EQ(generic, want);
}

class VmBenchmarkTwinTest : public SchemeVmTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(VmBenchmarkTwinTest, NativeOutputsIdentical) {
  const Bench bench = static_cast<Bench>(GetParam());
  const std::string src =
      benchmark_source(bench, benchmark_test_size(bench));
  const std::string oracle = stdout_with(src, Engine::Config{});
  const std::string vm = stdout_with(src, vm_config());
  EXPECT_FALSE(vm.empty());
  EXPECT_EQ(oracle, vm) << "VM output diverges on "
                        << benchmark_name(bench);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, VmBenchmarkTwinTest,
                         ::testing::Range(0, kBenchCount));

}  // namespace
}  // namespace mv::scheme

// --- hybridized twin-run ----------------------------------------------------

namespace mv::multiverse {
namespace {

Result<ProgramResult> run_vessel(bool hybrid, bool vm,
                                 const std::string& src) {
  SystemConfig cfg;
  cfg.virtualized = hybrid;
  if (hybrid) cfg.extra_override_config = "option service_workers 2\n";
  HybridSystem system(cfg);
  MV_RETURN_IF_ERROR(scheme::install_boot_files(system.linux().fs()));
  scheme::Engine::Config ecfg;
  if (vm) ecfg.exec = scheme::Engine::Exec::kBytecodeVm;
  auto guest = [src, ecfg](ros::SysIface& sys) {
    return scheme::vessel_main(sys, src, /*use_launcher_thread=*/false,
                               ecfg);
  };
  return hybrid ? system.run_hybrid("vessel", guest)
                : system.run("vessel", guest);
}

class HybridVmTwinTest : public ::testing::TestWithParam<int> {};

// Interpreter and VM agree byte-for-byte in the hybridized (HRT)
// configuration too, with exitless service workers enabled.
TEST_P(HybridVmTwinTest, HybridOutputsIdentical) {
  const auto bench = static_cast<scheme::Bench>(GetParam());
  const std::string src =
      scheme::benchmark_source(bench, scheme::benchmark_test_size(bench));
  auto oracle = run_vessel(true, false, src);
  auto vm = run_vessel(true, true, src);
  ASSERT_TRUE(oracle.is_ok()) << oracle.status().to_string();
  ASSERT_TRUE(vm.is_ok()) << vm.status().to_string();
  EXPECT_EQ(oracle->exit_code, 0);
  EXPECT_EQ(vm->exit_code, 0);
  EXPECT_FALSE(vm->stdout_text.empty());
  EXPECT_EQ(oracle->stdout_text, vm->stdout_text)
      << "hybrid VM output diverges on " << scheme::benchmark_name(bench);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, HybridVmTwinTest,
                         ::testing::Range(0, scheme::kBenchCount));

}  // namespace
}  // namespace mv::multiverse
