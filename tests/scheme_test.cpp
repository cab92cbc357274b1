// Vessel Scheme tests: reader, evaluator semantics (tail calls, closures,
// special forms), GC behaviour (collection, chunk unmapping, write
// barriers), engine embedding, the REPL, and benchmark correctness against
// the host-side reference implementations.

#include <gtest/gtest.h>

#include "ros/linux.hpp"
#include "runtime/scheme/engine.hpp"
#include "runtime/scheme/programs.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

#include "recording_iface.hpp"

namespace mv::scheme {
namespace {

// Fixture: a native LinuxSim process hosting one engine; helpers run
// (eval) inside the guest program.
class SchemeTest : public ::testing::Test {
 protected:
  // Evaluate `src` in a fresh engine; returns the displayed result.
  std::string ev(const std::string& src) {
    std::string result;
    run_guest([&result, &src](ros::SysIface& sys) {
      Engine engine(sys);
      const Status up = engine.init();
      EXPECT_TRUE(up.is_ok()) << up.to_string();
      auto r = engine.eval_to_string(src);
      result = r.is_ok() ? *r : "ERROR: " + r.status().to_string();
      return 0;
    });
    return result;
  }

  // Evaluate and return the program's stdout.
  std::string ev_stdout(const std::string& src, Engine::Config cfg = {}) {
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

  using GuestFn = std::function<int(ros::SysIface&)>;

  void run_guest(GuestFn guest) { run_guests({std::move(guest)}); }

  // One guest process per function, all on one core: they interleave at
  // sched_yield. procs_ keeps spawn order; proc_ is the first.
  void run_guests(std::vector<GuestFn> guests) {
    // Tear down in dependency order before rebuilding (address spaces hold
    // machine references).
    proc_ = nullptr;
    procs_.clear();
    linux_.reset();
    sched_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{1, 2, 1 << 28});
    sched_ = std::make_unique<Sched>();
    linux_ = std::make_unique<ros::LinuxSim>(
        *machine_, *sched_, ros::LinuxSim::Config{{0}, false});
    ASSERT_TRUE(install_boot_files(linux_->fs()).is_ok());
    for (GuestFn& guest : guests) {
      auto proc = linux_->spawn("scheme", std::move(guest));
      ASSERT_TRUE(proc.is_ok());
      procs_.push_back(*proc);
    }
    proc_ = procs_.front();
    const Status s = linux_->run_all();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<Sched> sched_;
  std::unique_ptr<ros::LinuxSim> linux_;
  ros::Process* proc_ = nullptr;
  std::vector<ros::Process*> procs_;
};

// --- reader / printer -----------------------------------------------------------

TEST_F(SchemeTest, SelfEvaluatingLiterals) {
  EXPECT_EQ(ev("42"), "42");
  EXPECT_EQ(ev("-17"), "-17");
  EXPECT_EQ(ev("3.5"), "3.5");
  EXPECT_EQ(ev("#t"), "#t");
  EXPECT_EQ(ev("#f"), "#f");
  EXPECT_EQ(ev("\"hi\\n\""), "hi\n");
  EXPECT_EQ(ev("#\\a"), "a");
  EXPECT_EQ(ev("1e3"), "1000.0");
}

TEST_F(SchemeTest, QuoteAndListPrinting) {
  EXPECT_EQ(ev("'(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(ev("'(1 . 2)"), "(1 . 2)");
  EXPECT_EQ(ev("''x"), "(quote x)");
  EXPECT_EQ(ev("'()"), "()");
  EXPECT_EQ(ev("'(a (b c) d)"), "(a (b c) d)");
  EXPECT_EQ(ev("#(1 2 3)"), "#(1 2 3)");
}

TEST_F(SchemeTest, CommentsIgnored) {
  EXPECT_EQ(ev("; line comment\n 5"), "5");
  EXPECT_EQ(ev("#| block #| nested |# comment |# 7"), "7");
}

// --- arithmetic -------------------------------------------------------------------

TEST_F(SchemeTest, IntegerArithmetic) {
  EXPECT_EQ(ev("(+ 1 2 3)"), "6");
  EXPECT_EQ(ev("(- 10 3 2)"), "5");
  EXPECT_EQ(ev("(- 5)"), "-5");
  EXPECT_EQ(ev("(* 2 3 4)"), "24");
  EXPECT_EQ(ev("(/ 12 4)"), "3");
  EXPECT_EQ(ev("(quotient 17 5)"), "3");
  EXPECT_EQ(ev("(remainder 17 5)"), "2");
  EXPECT_EQ(ev("(modulo -7 3)"), "2");
  EXPECT_EQ(ev("(expt 2 10)"), "1024");
}

TEST_F(SchemeTest, RealArithmeticAndContagion) {
  EXPECT_EQ(ev("(+ 1 2.5)"), "3.5");
  EXPECT_EQ(ev("(/ 1 2)"), "0.5");
  EXPECT_EQ(ev("(sqrt 16)"), "4.0");
  EXPECT_EQ(ev("(floor 2.7)"), "2.0");
  EXPECT_EQ(ev("(max 1 2.5 2)"), "2.5");
  EXPECT_EQ(ev("(abs -3.5)"), "3.5");
}

TEST_F(SchemeTest, Comparisons) {
  EXPECT_EQ(ev("(< 1 2 3)"), "#t");
  EXPECT_EQ(ev("(< 1 3 2)"), "#f");
  EXPECT_EQ(ev("(= 2 2 2)"), "#t");
  EXPECT_EQ(ev("(>= 3 3 1)"), "#t");
  EXPECT_EQ(ev("(even? 4)"), "#t");
  EXPECT_EQ(ev("(odd? 4)"), "#f");
  EXPECT_EQ(ev("(zero? 0.0)"), "#t");
}

// --- special forms ---------------------------------------------------------------

TEST_F(SchemeTest, IfAndCond) {
  EXPECT_EQ(ev("(if #t 1 2)"), "1");
  EXPECT_EQ(ev("(if #f 1 2)"), "2");
  EXPECT_EQ(ev("(if 0 'yes 'no)"), "yes");  // 0 is truthy in Scheme
  EXPECT_EQ(ev("(cond (#f 1) (#t 2) (else 3))"), "2");
  EXPECT_EQ(ev("(cond (#f 1) (else 3))"), "3");
  EXPECT_EQ(ev("(cond (42))"), "42");
}

TEST_F(SchemeTest, DefineLambdaClosures) {
  EXPECT_EQ(ev("(define (f x) (* x x)) (f 7)"), "49");
  EXPECT_EQ(ev("(define f (lambda (x y) (+ x y))) (f 3 4)"), "7");
  EXPECT_EQ(ev("(define (make-adder n) (lambda (x) (+ x n)))"
               "((make-adder 10) 5)"),
            "15");
  EXPECT_EQ(ev("(define (counter)"
               "  (define c 0)"
               "  (lambda () (set! c (+ c 1)) c))"
               "(define tick (counter)) (tick) (tick) (tick)"),
            "3");
}

TEST_F(SchemeTest, VariadicLambdas) {
  EXPECT_EQ(ev("(define (f . args) (length args)) (f 1 2 3 4)"), "4");
  EXPECT_EQ(ev("(define (g a . rest) (cons a rest)) (g 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(ev("((lambda args args) 1 2)"), "(1 2)");
}

TEST_F(SchemeTest, LetForms) {
  EXPECT_EQ(ev("(let ((x 2) (y 3)) (* x y))"), "6");
  EXPECT_EQ(ev("(let* ((x 2) (y (* x x))) y)"), "4");
  EXPECT_EQ(ev("(letrec ((even2? (lambda (n) (if (= n 0) #t (odd2? (- n 1)))))"
               "         (odd2? (lambda (n) (if (= n 0) #f (even2? (- n 1))))))"
               "  (even2? 10))"),
            "#t");
  // let bindings see the outer scope, not each other.
  EXPECT_EQ(ev("(define x 1) (let ((x 2) (y x)) y)"), "1");
}

TEST_F(SchemeTest, NamedLetLoops) {
  EXPECT_EQ(ev("(let loop ((i 0) (acc 0))"
               "  (if (= i 5) acc (loop (+ i 1) (+ acc i))))"),
            "10");
}

TEST_F(SchemeTest, DoLoops) {
  EXPECT_EQ(ev("(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 5) s))"), "10");
  EXPECT_EQ(ev("(define v (make-vector 5 0))"
               "(do ((i 0 (+ i 1))) ((= i 5) v) (vector-set! v i (* i i)))"),
            "#(0 1 4 9 16)");
}

TEST_F(SchemeTest, BeginAndSequencing) {
  EXPECT_EQ(ev("(begin 1 2 3)"), "3");
  EXPECT_EQ(ev("(define x 0) (begin (set! x 5) (+ x 1))"), "6");
}

TEST_F(SchemeTest, AndOrShortCircuit) {
  EXPECT_EQ(ev("(and 1 2 3)"), "3");
  EXPECT_EQ(ev("(and 1 #f 3)"), "#f");
  EXPECT_EQ(ev("(and)"), "#t");
  EXPECT_EQ(ev("(or #f 2 3)"), "2");
  EXPECT_EQ(ev("(or #f #f)"), "#f");
  EXPECT_EQ(ev("(or)"), "#f");
  // Short-circuit: the third form must not run.
  EXPECT_EQ(ev("(define x 0) (or 1 (set! x 99)) x"), "0");
}

TEST_F(SchemeTest, CaseDispatch) {
  EXPECT_EQ(ev("(case 3 ((1 2) 'low) ((3 4) 'mid) (else 'high))"), "mid");
  EXPECT_EQ(ev("(case 9 ((1 2) 'low) (else 'high))"), "high");
}

TEST_F(SchemeTest, WhenUnless) {
  EXPECT_EQ(ev("(when #t 1 2)"), "2");
  EXPECT_EQ(ev("(unless #f 'ran)"), "ran");
}

// Proper tail calls: a million iterations must not overflow the fiber stack.
TEST_F(SchemeTest, TailCallsAreConstantSpace) {
  EXPECT_EQ(ev("(define (loop n) (if (= n 0) 'done (loop (- n 1))))"
               "(loop 1000000)"),
            "done");
  EXPECT_EQ(ev("(let loop ((n 500000) (acc 0))"
               "  (if (= n 0) acc (loop (- n 1) (+ acc 1))))"),
            "500000");
}

// --- data structures ---------------------------------------------------------------

TEST_F(SchemeTest, PairsAndLists) {
  EXPECT_EQ(ev("(cons 1 2)"), "(1 . 2)");
  EXPECT_EQ(ev("(car '(1 2))"), "1");
  EXPECT_EQ(ev("(cdr '(1 2))"), "(2)");
  EXPECT_EQ(ev("(length '(a b c))"), "3");
  EXPECT_EQ(ev("(append '(1 2) '(3) '(4 5))"), "(1 2 3 4 5)");
  EXPECT_EQ(ev("(reverse '(1 2 3))"), "(3 2 1)");
  EXPECT_EQ(ev("(list 1 (+ 1 1) 3)"), "(1 2 3)");
  EXPECT_EQ(ev("(define p (cons 1 2)) (set-car! p 9) p"), "(9 . 2)");
  EXPECT_EQ(ev("(list-ref '(a b c d) 2)"), "c");
  EXPECT_EQ(ev("(assq 'b '((a 1) (b 2)))"), "(b 2)");
  EXPECT_EQ(ev("(member 2 '(1 2 3))"), "(2 3)");
}

TEST_F(SchemeTest, Vectors) {
  EXPECT_EQ(ev("(vector-length (make-vector 7 0))"), "7");
  EXPECT_EQ(ev("(define v (vector 1 2 3)) (vector-set! v 1 99) v"),
            "#(1 99 3)");
  EXPECT_EQ(ev("(vector-ref #(5 6 7) 2)"), "7");
  EXPECT_EQ(ev("(vector->list #(1 2 3))"), "(1 2 3)");
  EXPECT_EQ(ev("(list->vector '(4 5))"), "#(4 5)");
  EXPECT_NE(ev("(vector-ref #(1) 5)").find("ERROR"), std::string::npos);
}

TEST_F(SchemeTest, Strings) {
  EXPECT_EQ(ev("(string-length \"hello\")"), "5");
  EXPECT_EQ(ev("(string-append \"foo\" \"bar\")"), "foobar");
  EXPECT_EQ(ev("(substring \"hello\" 1 3)"), "el");
  EXPECT_EQ(ev("(string->number \"42\")"), "42");
  EXPECT_EQ(ev("(string->number \"3.5\")"), "3.5");
  EXPECT_EQ(ev("(string->number \"nope\")"), "#f");
  EXPECT_EQ(ev("(number->string 42)"), "42");
  EXPECT_EQ(ev("(string=? \"a\" \"a\")"), "#t");
  EXPECT_EQ(ev("(string-ref \"abc\" 1)"), "b");
  EXPECT_EQ(ev("(symbol->string 'foo)"), "foo");
  EXPECT_EQ(ev("(string->symbol \"bar\")"), "bar");
}

TEST_F(SchemeTest, Equality) {
  EXPECT_EQ(ev("(eq? 'a 'a)"), "#t");
  EXPECT_EQ(ev("(eq? '(1) '(1))"), "#f");       // different cells
  EXPECT_EQ(ev("(equal? '(1 (2)) '(1 (2)))"), "#t");
  EXPECT_EQ(ev("(eqv? 1.5 1.5)"), "#t");
  EXPECT_EQ(ev("(equal? #(1 2) #(1 2))"), "#t");
  EXPECT_EQ(ev("(equal? \"ab\" \"ab\")"), "#t");
}

TEST_F(SchemeTest, HigherOrderFunctions) {
  EXPECT_EQ(ev("(map (lambda (x) (* x x)) '(1 2 3))"), "(1 4 9)");
  EXPECT_EQ(ev("(map + '(1 2) '(10 20))"), "(11 22)");
  EXPECT_EQ(ev("(filter even? '(1 2 3 4 5 6))"), "(2 4 6)");
  EXPECT_EQ(ev("(fold-left + 0 '(1 2 3 4))"), "10");
  EXPECT_EQ(ev("(apply + 1 2 '(3 4))"), "10");
  EXPECT_EQ(ev("(apply max '(3 1 4 1 5))"), "5");
}

TEST_F(SchemeTest, ErrorsPropagate) {
  EXPECT_NE(ev("(car 5)").find("ERROR"), std::string::npos);
  EXPECT_NE(ev("(undefined-proc 1)").find("ERROR"), std::string::npos);
  EXPECT_NE(ev("(error \"boom\" 42)").find("boom"), std::string::npos);
  EXPECT_NE(ev("(+ 'a 1)").find("ERROR"), std::string::npos);
  EXPECT_NE(ev("((lambda (x) x) 1 2)").find("ERROR"), std::string::npos);
}

// Reader error paths: every malformed input must surface a PARSE status
// with a useful message, never a crash, a silent misread, or a bogus value.
TEST_F(SchemeTest, ReaderRejectsMalformedInput) {
  struct Case {
    const char* src;
    const char* expect;  // substring of the error text
  };
  static const Case kCases[] = {
      {"\"unterminated", "unterminated string literal"},
      {"(1 2", "unterminated list"},
      {"(1 (2 3)", "unterminated list"},
      {")", "unexpected )"},
      {"(. 5)", "dotted pair without car"},
      {"(1 .", "unexpected end of input after ."},
      {"(1 . 2 3)", "expected ) after dotted tail"},
      {"'", "unexpected end of input after quote"},
      {"`", "unexpected end of input after quasiquote"},
      {"(a ,", "unexpected end of input after unquote"},
      {"#| never closed", "unterminated block comment"},
      {"#| outer #| inner |# still open", "unterminated block comment"},
      {"99999999999999999999999999", "integer literal overflow"},
      {"-99999999999999999999999999", "integer literal overflow"},
      {"#\\bogus", "bad character literal"},
  };
  for (const Case& c : kCases) {
    const std::string result = ev(c.src);
    EXPECT_NE(result.find("ERROR: PARSE"), std::string::npos)
        << c.src << " => " << result;
    EXPECT_NE(result.find(c.expect), std::string::npos)
        << c.src << " => " << result;
  }
  // Nesting beyond the parser's depth cap errors instead of overflowing
  // the host stack.
  const std::string deep =
      std::string(5000, '(') + "1" + std::string(5000, ')');
  const std::string result = ev(deep);
  EXPECT_NE(result.find("expression nesting too deep"), std::string::npos)
      << result;
}

// --- output -------------------------------------------------------------------------

TEST_F(SchemeTest, DisplayGoesThroughWriteSyscalls) {
  const std::string out =
      ev_stdout("(display \"hello\") (newline) (display (+ 1 2)) (newline)");
  EXPECT_EQ(out, "hello\n3\n");
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kWrite), 1u);
}

TEST_F(SchemeTest, WriteQuotesStrings) {
  EXPECT_EQ(ev_stdout("(write \"hi\") (newline)"), "\"hi\"\n");
}

// --- GC behaviour --------------------------------------------------------------------

TEST_F(SchemeTest, GcCollectsGarbageAndKeepsLiveData) {
  run_guest([](ros::SysIface& sys) {
    Engine::Config cfg;
    cfg.heap.gc_allocation_trigger = 2000;  // force frequent collections
    Engine engine(sys, cfg);
    EXPECT_TRUE(engine.init().is_ok());
    auto r = engine.eval_to_string(
        "(define keep '(1 2 3))"
        "(define (churn n)"
        "  (if (= n 0) 'ok (begin (list 1 2 3 4 5) (churn (- n 1)))))"
        "(churn 5000)"
        "keep");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(*r, "(1 2 3)");
    EXPECT_GT(engine.heap().stats().collections, 3u);
    EXPECT_GT(engine.heap().stats().cells_swept, 1000u);
    return 0;
  });
}

TEST_F(SchemeTest, GcHeapGrowthMapsChunksAndFreesThem) {
  run_guest([](ros::SysIface& sys) {
    Engine::Config cfg;
    cfg.heap.gc_allocation_trigger = 100000;  // let the heap grow first
    Engine engine(sys, cfg);
    EXPECT_TRUE(engine.init().is_ok());
    // Build then drop a large structure; collection should munmap chunks.
    auto r = engine.eval_string(
        "(define big (let loop ((i 0) (acc '()))"
        "  (if (= i 60000) acc (loop (+ i 1) (cons i acc)))))"
        "(set! big '())"
        "(collect-garbage)");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_GT(engine.heap().stats().chunks_mapped, 24u);
    EXPECT_GT(engine.heap().stats().chunks_unmapped, 0u);
    return 0;
  });
  // The syscall histogram reflects it.
  EXPECT_GT(proc_->syscall_count(ros::SysNr::kMmap), 24u);
  EXPECT_GT(proc_->syscall_count(ros::SysNr::kMunmap), 0u);
}

TEST_F(SchemeTest, WriteBarriersTakeSigsegvs) {
  run_guest([](ros::SysIface& sys) {
    Engine::Config cfg;
    cfg.heap.gc_allocation_trigger = 4000;
    Engine engine(sys, cfg);
    EXPECT_TRUE(engine.init().is_ok());
    // Create long-lived data (survives GC -> its chunk gets protected),
    // then mutate it: each first mutation of a protected chunk SIGSEGVs.
    auto r = engine.eval_string(
        "(define old (make-vector 3000 0))"
        "(define (churn n)"
        "  (if (= n 0) 'ok (begin (cons 1 2) (churn (- n 1)))))"
        "(churn 10000)"
        "(vector-set! old 5 'mutated)"
        "(vector-ref old 5)");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_GT(engine.heap().stats().barrier_hits, 0u);
    return 0;
  });
  EXPECT_GT(proc_->signals_delivered, 0u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kRtSigreturn), 1u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kMprotect), 2u);
}

// Two engines in two guest processes. Engine A arms its write barriers,
// engine B starts in the second process, then A mutates its old data while
// B is alive or after B was destroyed. Each process's SIGSEGV handler must
// resolve the fault against its own heap.
class TwoEngineBarrierTest : public SchemeTest {
 protected:
  struct Hits {
    std::uint64_t first = 0;
    std::uint64_t second = 0;
  };

  Hits run(bool second_alive) {
    enum class Step { kStart, kFirstArmed, kSecondUp, kFirstDone };
    Step step = Step::kStart;
    // Bounded, so a killed partner fails the test instead of hanging it.
    auto wait_for = [&step](ros::SysIface& sys, Step s) {
      for (int i = 0; i < 1000 && step < s; ++i) sys.thread_yield();
      return step >= s;
    };
    Engine::Config cfg;
    cfg.heap.gc_allocation_trigger = 4000;
    cfg.load_boot_files = false;
    Hits hits;
    run_guests({
        [&](ros::SysIface& sys) {
          Engine engine(sys, cfg);
          EXPECT_TRUE(engine.init().is_ok());
          // `old` survives a collection, so its chunk is write-protected.
          auto r = engine.eval_string(
              "(define old (make-vector 3000 0))"
              "(define (churn n)"
              "  (if (= n 0) 'ok (begin (cons 1 2) (churn (- n 1)))))"
              "(churn 10000)");
          EXPECT_TRUE(r.is_ok()) << r.status().to_string();
          step = Step::kFirstArmed;
          EXPECT_TRUE(wait_for(sys, Step::kSecondUp));
          auto v = engine.eval_to_string(
              "(vector-set! old 5 'mutated) (vector-ref old 5)");
          EXPECT_TRUE(v.is_ok()) << v.status().to_string();
          EXPECT_EQ(v.value_or(""), "mutated");
          hits.first = engine.heap().stats().barrier_hits;
          step = Step::kFirstDone;
          return 0;
        },
        [&](ros::SysIface& sys) {
          EXPECT_TRUE(wait_for(sys, Step::kFirstArmed));
          {
            Engine engine(sys, cfg);
            EXPECT_TRUE(engine.init().is_ok());
            if (second_alive) {
              step = Step::kSecondUp;
              EXPECT_TRUE(wait_for(sys, Step::kFirstDone));
            }
            hits.second = engine.heap().stats().barrier_hits;
          }
          if (step < Step::kSecondUp) step = Step::kSecondUp;
          return 0;
        },
    });
    return hits;
  }
};

TEST_F(TwoEngineBarrierTest, FaultResolvesAgainstItsOwnHeapBesideALiveEngine) {
  const Hits hits = run(/*second_alive=*/true);
  EXPECT_GT(hits.first, 0u);
  EXPECT_EQ(hits.second, 0u);
  EXPECT_GT(procs_[0]->signals_delivered, 0u);
}

TEST_F(TwoEngineBarrierTest, FaultResolvesAgainstItsOwnHeapAfterAnEngineDies) {
  const Hits hits = run(/*second_alive=*/false);
  EXPECT_GT(hits.first, 0u);
  EXPECT_EQ(hits.second, 0u);
  EXPECT_GT(procs_[0]->signals_delivered, 0u);
}

// Hand-out order. The heap builds a chunk's cells on first hand-out; it must
// give out the same guest addresses, and end with the same GcStats, as the
// free list it replaces: slots 0..n-1 pushed in order and popped from the
// back, with each sweep re-filing every unmarked slot in ascending order.
// The model below is that prebuilt free list, driven through random
// alloc/root/unroot/write/collect sequences on a heap with small chunks.
TEST_F(SchemeTest, HeapHandsOutCellsInPrebuiltFreeListOrder) {
  Heap::Config cfg;
  cfg.chunk_bytes = 2 * 4096;
  cfg.cell_bytes = 512;  // 16 cells per chunk
  cfg.gc_allocation_trigger = 24;
  cfg.min_chunks = 2;
  cfg.startup_chunks = 4;
  cfg.startup_trim = 1;
  const std::uint64_t n = cfg.chunk_bytes / cfg.cell_bytes;

  struct ModelChunk {
    std::uint64_t base = 0;  // learned from the chunk's first hand-out
    bool base_known = false;
    std::vector<std::uint64_t> free;
    std::vector<bool> in_use;
    std::uint64_t live = 0;
    bool write_protected = false;
  };
  struct Obj {
    Cell* cell;
    ModelChunk* chunk;
    std::uint64_t slot;
  };

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(strfmt("seed %llu", static_cast<unsigned long long>(seed)));
    run_guest([&](ros::SysIface& sys) {
      std::vector<std::unique_ptr<ModelChunk>> chunks;
      auto new_chunk = [&chunks, n] {
        auto chunk = std::make_unique<ModelChunk>();
        for (std::uint64_t i = 0; i < n; ++i) chunk->free.push_back(i);
        chunk->in_use.assign(n, false);
        chunks.push_back(std::move(chunk));
      };
      GcStats want;
      want.chunks_mapped = static_cast<std::uint64_t>(cfg.startup_chunks);
      want.chunks_unmapped = static_cast<std::uint64_t>(cfg.startup_trim);
      for (int i = 0; i < cfg.startup_chunks - cfg.startup_trim; ++i) {
        new_chunk();
      }
      std::vector<Obj> rooted;
      std::vector<Obj> unrooted;  // allocated since the last collection
      std::uint64_t since_gc = 0;

      auto model_collect = [&] {
        ++want.collections;
        since_gc = 0;
        for (auto& chunk : chunks) {
          std::vector<bool> marked(n, false);
          for (const Obj& o : rooted) {
            if (o.chunk == chunk.get()) marked[o.slot] = true;
          }
          chunk->free.clear();
          chunk->live = 0;
          for (std::uint64_t slot = 0; slot < n; ++slot) {
            if (marked[slot]) {
              ++chunk->live;
              continue;
            }
            if (chunk->in_use[slot]) {
              ++want.cells_swept;
              --want.live_cells;
              chunk->in_use[slot] = false;
            }
            chunk->free.push_back(slot);
          }
        }
        for (std::size_t i = chunks.size(); i-- > 0;) {
          if (chunks.size() <= cfg.min_chunks) break;
          if (chunks[i]->live == 0) {
            chunks.erase(chunks.begin() + static_cast<long>(i));
            ++want.chunks_unmapped;
          }
        }
        for (auto& chunk : chunks) {
          if (chunk->live > 0) chunk->write_protected = true;
        }
        unrooted.clear();
      };
      auto model_alloc = [&]() -> Obj {
        if (since_gc >= cfg.gc_allocation_trigger) model_collect();
        ModelChunk* target = nullptr;
        for (auto& chunk : chunks) {
          if (!chunk->free.empty() && !chunk->write_protected) {
            target = chunk.get();
            break;
          }
        }
        if (target == nullptr) {
          new_chunk();
          ++want.chunks_mapped;
          target = chunks.back().get();
        }
        const std::uint64_t slot = target->free.back();
        target->free.pop_back();
        target->in_use[slot] = true;
        ++target->live;
        ++since_gc;
        ++want.cells_allocated;
        ++want.live_cells;
        return Obj{nullptr, target, slot};
      };

      Heap heap(sys, cfg);
      heap.set_extra_root_marker([&rooted](const Heap::RootVisitor& visit) {
        for (const Obj& o : rooted) visit(Value::from_cell(o.cell));
      });
      EXPECT_TRUE(heap.init().is_ok());
      Rng rng(seed);
      auto take = [&rng](std::vector<Obj>& from) {
        const std::size_t i = rng.below(from.size());
        const Obj o = from[i];
        from.erase(from.begin() + static_cast<long>(i));
        return o;
      };
      for (int op = 0; op < 600; ++op) {
        const std::uint64_t pick = rng.below(100);
        if (pick < 55) {
          Obj o = model_alloc();
          auto cell = heap.alloc(Cell::Type::kPair);
          EXPECT_TRUE(cell.is_ok());
          if (!cell.is_ok()) return 1;
          o.cell = *cell;
          const std::uint64_t addr = o.cell->guest_addr;
          if (!o.chunk->base_known) {
            o.chunk->base = addr - o.slot * cfg.cell_bytes;
            o.chunk->base_known = true;
            EXPECT_EQ(o.chunk->base % 4096, 0u) << "op " << op;
          }
          EXPECT_EQ(addr, o.chunk->base + o.slot * cfg.cell_bytes)
              << "op " << op;
          unrooted.push_back(o);
        } else if (pick < 70 && !unrooted.empty()) {
          rooted.push_back(take(unrooted));
        } else if (pick < 82 && !rooted.empty()) {
          unrooted.push_back(take(rooted));
        } else if (pick < 94 && !rooted.empty()) {
          const Obj& o = rooted[rng.below(rooted.size())];
          heap.write_barrier(o.cell);
          if (o.chunk->write_protected) {
            o.chunk->write_protected = false;
            ++want.barrier_hits;
          }
        } else if (pick >= 94) {
          heap.collect();
          model_collect();
        }
      }
      const GcStats& got = heap.stats();
      EXPECT_EQ(got.collections, want.collections);
      EXPECT_EQ(got.cells_allocated, want.cells_allocated);
      EXPECT_EQ(got.cells_swept, want.cells_swept);
      EXPECT_EQ(got.chunks_mapped, want.chunks_mapped);
      EXPECT_EQ(got.chunks_unmapped, want.chunks_unmapped);
      EXPECT_EQ(got.barrier_hits, want.barrier_hits);
      EXPECT_EQ(got.live_cells, want.live_cells);
      // Enough traffic that every part of the model was exercised.
      EXPECT_GT(want.collections, 5u);
      EXPECT_GT(want.cells_swept, 0u);
      EXPECT_GT(want.barrier_hits, 0u);
      EXPECT_GT(want.chunks_mapped,
                static_cast<std::uint64_t>(cfg.startup_chunks));
      return 0;
    });
  }
}

// Rooting stress: with the trigger at 1 every allocation runs a full
// collection, so any intermediate value held only in an unrooted host
// variable is swept out from under its consumer. The battery walks every
// allocation path (cons chains, quasiquote rebuilds, append/reverse copies,
// sort's comparator upcalls, apply's spread, rest-parameter lists, string
// and vector constructors) under both execution engines.
TEST_F(SchemeTest, EveryAllocationCollectsAndNothingLiveIsSwept) {
  struct Case {
    const char* src;
    const char* expect;
  };
  static const Case kCases[] = {
      {"(define (build n acc)"
       "  (if (= n 0) acc (build (- n 1) (cons n acc))))"
       "(length (build 40 '()))",
       "40"},
      {"(let ((x 1) (y 2)) `(a ,x (b ,y) ,(+ x y)))", "(a 1 (b 2) 3)"},
      {"(append '(1 2) '(3 4) (list 5 6))", "(1 2 3 4 5 6)"},
      {"(reverse (string->list \"hello\"))", "(o l l e h)"},
      {"(sort '(3 1 2 5 4) (lambda (a b) (< a b)))", "(1 2 3 4 5)"},
      {"(apply + 1 2 '(3 4 5))", "15"},
      {"(define (rest-count . xs) (length xs))"
       "(rest-count 1 2 3 4 5 6 7)",
       "7"},
      {"(string-append \"ab\" (number->string 12) (symbol->string 'cd))",
       "ab12cd"},
      {"(let loop ((i 0) (v (make-vector 6 0)))"
       "  (if (= i 6) v (begin (vector-set! v i (* i i))"
       "                       (loop (+ i 1) v))))",
       "#(0 1 4 9 16 25)"},
      {"(do ((i 0 (+ i 1)) (acc '() (cons i acc)))"
       "    ((= i 5) (reverse acc)))",
       "(0 1 2 3 4)"},
      {"(define (compose f g) (lambda (x) (f (g x))))"
       "((compose (lambda (x) (* x 2)) (lambda (x) (+ x 3))) 4)",
       "14"},
      {"(vector->list (list->vector '(1 #\\x \"s\" 2.5)))", "(1 x s 2.5)"},
  };
  for (const Engine::Exec exec :
       {Engine::Exec::kInterpreter, Engine::Exec::kBytecodeVm}) {
    for (const Case& c : kCases) {
      Engine::Config cfg;
      cfg.exec = exec;
      cfg.heap.gc_allocation_trigger = 1;
      cfg.heap.write_barriers = false;  // skip the mprotect storm
      cfg.load_boot_files = false;      // keep per-alloc-collect init cheap
      std::string result;
      run_guest([&result, &c, cfg](ros::SysIface& sys) {
        Engine engine(sys, cfg);
        const Status up = engine.init();
        EXPECT_TRUE(up.is_ok()) << up.to_string();
        auto r = engine.eval_to_string(c.src);
        result = r.is_ok() ? *r : "ERROR: " + r.status().to_string();
        return 0;
      });
      EXPECT_EQ(result, c.expect)
          << (cfg.exec == Engine::Exec::kBytecodeVm ? "vm: " : "interp: ")
          << c.src;
    }
  }
}

// The battery's two-thread case, under the VM with write barriers armed by
// every collection. Thread A's set!s and vector-set!s take barrier faults,
// and each fault yields to thread B (as a forwarded fault blocks in the
// hybridized configuration), whose next allocation collects while A is
// mid-instruction. A's operand stack then holds a pair that nothing else
// references (`g` was just cleared), so it survives only if A's stack
// height was current when the fault began. Spawning and joining happen in
// one toplevel form, so no new frame of the main thread is in flight.
TEST_F(SchemeTest, EveryAllocationCollectsWhileAThreadTakesBarrierFaults) {
  Engine::Config cfg;
  cfg.exec = Engine::Exec::kBytecodeVm;
  cfg.heap.gc_allocation_trigger = 1;
  cfg.load_boot_files = false;
  static const char* const kForms[] = {
      "(define g #f)"
      "(define old (make-vector 2 0))"
      "(define results (make-vector 2 #f))"
      "(define (taker k)"
      "  (let ((acc '()) (n 0))"
      "    (do ((i 0 (+ i 1))) ((= i k) acc)"
      "      (set! g (cons 'g i))"
      "      (set! acc (cons (list 'a 'b g (begin (set! g #f)"
      "                                           (set! n (+ n 1)) n))"
      "                      acc))"
      "      (vector-set! old 1 (list 'c i)))))"
      "(define (allocator k acc)"
      "  (thread-yield)"
      "  (if (= k 0) (length acc) (allocator (- k 1) (cons k acc))))",
      "(let ((ta (spawn-thread (lambda () (vector-set! results 0 (taker 4)))))"
      "      (tb (spawn-thread"
      "           (lambda () (vector-set! results 1 (allocator 40 '()))))))"
      "  (thread-join ta)"
      "  (thread-join tb)"
      "  (list results old))",
  };
  std::string result;
  GcStats gc;
  testutil::EventLog log;
  run_guest([&](ros::SysIface& sys) {
    testutil::RecordingIface rec(sys, machine_->core(0), log,
                                 testutil::YieldOn::kBarrierFault);
    Engine engine(rec, cfg);
    const Status up = engine.init();
    EXPECT_TRUE(up.is_ok()) << up.to_string();
    for (const char* form : kForms) {
      auto r = engine.eval_to_string(form);
      result = r.is_ok() ? *r : "ERROR: " + r.status().to_string();
    }
    gc = engine.heap().stats();
    return 0;
  });
  EXPECT_EQ(result,
            "(#(((a b (g . 3) 4) (a b (g . 2) 3) (a b (g . 1) 2)"
            " (a b (g . 0) 1)) 40) #(0 (c 3)))");
  EXPECT_EQ(gc.collections, 975u);
  EXPECT_EQ(gc.cells_swept, 384u);
  EXPECT_EQ(gc.barrier_hits, 62u);
  EXPECT_EQ(log.events.size(), 5508u);
  EXPECT_EQ(log.fnv1a(), 17875562408841635677u);
}

// The battery's first-touch case. Thread A's new pairs land on fresh heap
// pages, and each page's first touch yields to thread B (as a forwarded
// page fault blocks in the hybridized configuration), whose next
// allocation collects before A has stored its new cell anywhere. The cell
// survives only if the allocator roots it through the touch; swept, it is
// handed to B as well, and the two threads' lists run into each other.
// `ballast` keeps the live set above every cell the engine's boot built,
// so each new pair is a cell never handed out before, and eight 512-byte
// cells fill a page.
TEST_F(SchemeTest, EveryAllocationCollectsWhileAThreadTakesFirstTouchFaults) {
  Engine::Config cfg;
  cfg.exec = Engine::Exec::kBytecodeVm;
  cfg.heap.gc_allocation_trigger = 1;
  cfg.heap.cell_bytes = 512;
  cfg.heap.write_barriers = false;
  cfg.load_boot_files = false;
  static const char* const kForms[] = {
      "(define results (make-vector 2 #f))"
      "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))"
      "(define (allocator k acc)"
      "  (thread-yield)"
      "  (if (= k 0) acc (allocator (- k 1) (cons (- k) acc))))"
      "(define ballast (build 400 '()))",
      "(let ((ta (spawn-thread (lambda () (vector-set! results 0 (build 24 '())))))"
      "      (tb (spawn-thread"
      "           (lambda () (vector-set! results 1 (allocator 12 '()))))))"
      "  (thread-join ta)"
      "  (thread-join tb)"
      "  results)",
  };
  std::string result;
  GcStats gc;
  testutil::EventLog log;
  run_guest([&](ros::SysIface& sys) {
    testutil::RecordingIface rec(sys, machine_->core(0), log,
                                 testutil::YieldOn::kFirstTouch);
    Engine engine(rec, cfg);
    const Status up = engine.init();
    EXPECT_TRUE(up.is_ok()) << up.to_string();
    for (const char* form : kForms) {
      auto r = engine.eval_to_string(form);
      result = r.is_ok() ? *r : "ERROR: " + r.status().to_string();
    }
    gc = engine.heap().stats();
    return 0;
  });
  EXPECT_EQ(result,
            "#((1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24)"
            " (-1 -2 -3 -4 -5 -6 -7 -8 -9 -10 -11 -12))");
  EXPECT_EQ(gc.collections, 1280u);
  EXPECT_EQ(log.events.size(), 1497u);
  EXPECT_EQ(log.fnv1a(), 15506615751701015010u);
}

// A fresh call frame's own barrier fault, under the same schedule: thread
// A's closure calls take pooled frames that a collection left in
// write-protected chunks, so binding the arguments faults, and the fault
// yields to thread B, which collects. The frame is on no VM frame record
// yet; unrooted, it is swept mid-call (its parent link cleared) and A's
// next free-variable reference dereferences nothing.
TEST_F(SchemeTest, EveryAllocationCollectsWhileACallFrameTakesABarrierFault) {
  Engine::Config cfg;
  cfg.exec = Engine::Exec::kBytecodeVm;
  cfg.heap.gc_allocation_trigger = 1;
  cfg.load_boot_files = false;
  static const char* const kForms[] = {
      "(define results (make-vector 2 #f))"
      "(define (make-adder k) (lambda (x) (+ x k)))"
      "(define add3 (make-adder 3))"
      "(define (descend n)"
      "  (if (= n 0) (length (list 1 2)) (+ (add3 (descend (- n 1))) 0)))"
      "(define (caller k acc)"
      "  (if (= k 0) acc (caller (- k 1) (cons (descend 6) acc))))"
      "(define (allocator k acc)"
      "  (thread-yield)"
      "  (if (= k 0) (length acc) (allocator (- k 1) (cons k acc))))",
      "(let ((ta (spawn-thread (lambda () (vector-set! results 0 (caller 4 '())))))"
      "      (tb (spawn-thread"
      "           (lambda () (vector-set! results 1 (allocator 40 '()))))))"
      "  (thread-join ta)"
      "  (thread-join tb)"
      "  results)",
  };
  std::string result;
  GcStats gc;
  testutil::EventLog log;
  run_guest([&](ros::SysIface& sys) {
    testutil::RecordingIface rec(sys, machine_->core(0), log,
                                 testutil::YieldOn::kBarrierFault);
    Engine engine(rec, cfg);
    const Status up = engine.init();
    EXPECT_TRUE(up.is_ok()) << up.to_string();
    for (const char* form : kForms) {
      auto r = engine.eval_to_string(form);
      result = r.is_ok() ? *r : "ERROR: " + r.status().to_string();
    }
    gc = engine.heap().stats();
    return 0;
  });
  EXPECT_EQ(result, "#((20 20 20 20) 40)");
  EXPECT_EQ(gc.collections, 964u);
  EXPECT_EQ(gc.barrier_hits, 75u);
  EXPECT_EQ(log.events.size(), 5455u);
  EXPECT_EQ(log.fnv1a(), 927221290465587400u);
}

TEST_F(SchemeTest, StartupHasRacketLikeSyscallProfile) {
  // Fig 11: engine startup alone is dominated by mmap (heap arena), with
  // open/read/close/stat from collection loading.
  run_guest([](ros::SysIface& sys) {
    Engine engine(sys);
    EXPECT_TRUE(engine.init().is_ok());
    return 0;
  });
  EXPECT_GT(proc_->syscall_count(ros::SysNr::kMmap), 20u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kOpen), 5u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kClose), 5u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kStat), 5u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kRtSigaction), 2u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kSetitimer), 1u);
}

// --- REPL ------------------------------------------------------------------------------

TEST_F(SchemeTest, ReplEvaluatesLines) {
  run_guest([](ros::SysIface& sys) {
    return vessel_main(sys, "", /*use_launcher_thread=*/false);
  });
  // No stdin content: REPL prints its banner prompt and exits at EOF.
  EXPECT_NE(proc_->stdout_text.find("vessel>"), std::string::npos);
}

TEST_F(SchemeTest, ReplInteractiveSession) {
  machine_ = std::make_unique<hw::Machine>(hw::MachineConfig{1, 2, 1 << 28});
  sched_ = std::make_unique<Sched>();
  linux_ = std::make_unique<ros::LinuxSim>(
      *machine_, *sched_, ros::LinuxSim::Config{{0}, false});
  ASSERT_TRUE(install_boot_files(linux_->fs()).is_ok());
  auto proc = linux_->spawn("repl", [](ros::SysIface& sys) {
    return vessel_main(sys, "", false);
  });
  ASSERT_TRUE(proc.is_ok());
  proc_ = *proc;
  proc_->stdin_text = "(+ 1 2)\n(define x 10)\n(* x x)\n,exit\n";
  ASSERT_TRUE(linux_->run_all().is_ok());
  EXPECT_NE(proc_->stdout_text.find("3"), std::string::npos);
  EXPECT_NE(proc_->stdout_text.find("100"), std::string::npos);
}

TEST_F(SchemeTest, Quasiquote) {
  EXPECT_EQ(ev("`(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(ev("`(1 ,(+ 1 1) 3)"), "(1 2 3)");
  EXPECT_EQ(ev("(define x 9) `(a ,x (b ,(* x 2)))"), "(a 9 (b 18))");
  EXPECT_EQ(ev("``(a ,(b))"), "(quasiquote (a (unquote (b))))");
  EXPECT_EQ(ev("`(x . ,(+ 1 2))"), "(x . 3)");
  EXPECT_NE(ev(",5").find("ERROR"), std::string::npos);
}

TEST_F(SchemeTest, SortIsStableAndCorrect) {
  EXPECT_EQ(ev("(sort '(3 1 4 1 5 9 2 6) <)"), "(1 1 2 3 4 5 6 9)");
  EXPECT_EQ(ev("(sort '() <)"), "()");
  EXPECT_EQ(ev("(sort '(5) <)"), "(5)");
  EXPECT_EQ(ev("(sort '(\"pear\" \"apple\" \"fig\") string<?)"),
            "(apple fig pear)");
  // Stability: pairs compared by key only keep insertion order.
  EXPECT_EQ(ev("(map cdr (sort '((1 . a) (0 . b) (1 . c) (0 . d))"
               "  (lambda (p q) (< (car p) (car q)))))"),
            "(b d a c)");
  EXPECT_NE(ev("(sort '(1 2) 7)").find("ERROR"), std::string::npos);
  EXPECT_NE(ev("(sort '(1 2) (lambda (a b) (error \"cmp\")))")
                .find("ERROR"),
            std::string::npos);
}

TEST_F(SchemeTest, ExtendedLibrarySurface) {
  EXPECT_EQ(ev("(min 5)"), "5");
  EXPECT_EQ(ev("(max 2.5)"), "2.5");
  EXPECT_EQ(ev("(assv 2 '((1 . a) (2 . b)))"), "(2 . b)");
  EXPECT_EQ(ev("(assv 9 '((1 . a)))"), "#f");
  EXPECT_EQ(ev("(string->list \"abc\")"), "(a b c)");
  EXPECT_EQ(ev("(list->string '(#\\x #\\y))"), "xy");
  EXPECT_EQ(ev("(string<? \"abc\" \"abd\")"), "#t");
  EXPECT_EQ(ev("(char<? #\\a #\\b)"), "#t");
  EXPECT_EQ(ev("(char-alphabetic? #\\q)"), "#t");
  EXPECT_EQ(ev("(char-alphabetic? #\\5)"), "#f");
  EXPECT_EQ(ev("(char-numeric? #\\5)"), "#t");
  EXPECT_EQ(ev("(char-whitespace? #\\space)"), "#t");
  EXPECT_EQ(ev("(char-upcase #\\a)"), "A");
  EXPECT_EQ(ev("(char-downcase #\\Q)"), "q");
  EXPECT_EQ(ev("(define l '(1 2 3)) (define c (list-copy l))"
               "(set-car! c 9) (list l c)"),
            "((1 2 3) (9 2 3))");
}

TEST_F(SchemeTest, LoadEvaluatesFilesRecursively) {
  run_guest([this](ros::SysIface& sys) {
    // Files that include each other, like Racket collections do.
    EXPECT_TRUE(linux_->fs().mkdir("/", "lib").is_ok());
    EXPECT_TRUE(linux_->fs()
                    .write_file("/lib/a.scm",
                                "(define base 40)\n(load \"/lib/b.scm\")\n")
                    .is_ok());
    EXPECT_TRUE(linux_->fs()
                    .write_file("/lib/b.scm", "(define extra 2)\n")
                    .is_ok());
    Engine engine(sys);
    EXPECT_TRUE(engine.init().is_ok());
    auto r = engine.eval_to_string(
        "(load \"/lib/a.scm\") (+ base extra)");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(*r, "42");
    // Missing files report cleanly.
    auto bad = engine.eval_string("(load \"/nope.scm\")");
    EXPECT_EQ(bad.code(), Err::kNoEnt);
    return 0;
  });
  // The loads really went through open/read/close.
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kOpen), 7u);
}

// --- interpreter threads ---------------------------------------------------------

TEST_F(SchemeTest, SpawnThreadRunsAndJoins) {
  EXPECT_EQ(ev("(define done 0)"
               "(define t (spawn-thread (lambda () (set! done 42))))"
               "(thread-join t)"
               "done"),
            "42");
}

TEST_F(SchemeTest, ThreadsShareTheHeap) {
  EXPECT_EQ(ev("(define v (make-vector 4 0))"
               "(define ts (map (lambda (i)"
               "                  (spawn-thread (lambda ()"
               "                    (vector-set! v i (* i i)))))"
               "                '(0 1 2 3)))"
               "(for-each thread-join ts)"
               "v"),
            "#(0 1 4 9)");
}

TEST_F(SchemeTest, ThreadsUseTheClonePath) {
  run_guest([](ros::SysIface& sys) {
    Engine engine(sys);
    EXPECT_TRUE(engine.init().is_ok());
    auto r = engine.eval_string(
        "(define t (spawn-thread (lambda () (thread-yield) 'ok)))"
        "(thread-join t)");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return 0;
  });
  // Natively, spawn-thread is a clone and the join is futex-backed.
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kClone), 1u);
  EXPECT_GE(proc_->syscall_count(ros::SysNr::kFutex), 1u);
}

TEST_F(SchemeTest, ThreadsSurviveGcChurn) {
  run_guest([](ros::SysIface& sys) {
    Engine::Config cfg;
    cfg.heap.gc_allocation_trigger = 2000;  // collect often mid-thread
    Engine engine(sys, cfg);
    EXPECT_TRUE(engine.init().is_ok());
    auto r = engine.eval_to_string(
        "(define results (make-vector 3 '()))"
        "(define (busy i)"
        "  (let loop ((n 500) (acc '()))"
        "    (thread-yield)"
        "    (if (= n 0)"
        "        (vector-set! results i (length acc))"
        "        (loop (- n 1) (cons n acc)))))"
        "(define ts (map (lambda (i) (spawn-thread (lambda () (busy i))))"
        "                '(0 1 2)))"
        "(for-each thread-join ts)"
        "results");
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(*r, "#(500 500 500)");
    EXPECT_GT(engine.heap().stats().collections, 0u);
    return 0;
  });
}

// --- benchmark correctness vs reference implementations -------------------------

TEST_F(SchemeTest, BinaryTreesMatchesReference) {
  const int n = 6;
  const std::string out = ev_stdout(benchmark_source(Bench::kBinaryTrees, n));
  // stretch tree check of depth n+1.
  EXPECT_NE(out.find(strfmt("stretch tree of depth %d check: %lld", n + 1,
                            static_cast<long long>(
                                reference::binary_trees_check(n + 1)))),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(strfmt("long lived tree of depth %d check: %lld", n,
                            static_cast<long long>(
                                reference::binary_trees_check(n)))),
            std::string::npos)
      << out;
}

TEST_F(SchemeTest, FannkuchMatchesReference) {
  const int n = 6;
  const auto want = reference::fannkuch(n);
  const std::string out = ev_stdout(benchmark_source(Bench::kFannkuch, n));
  EXPECT_NE(out.find(strfmt("%lld", static_cast<long long>(want.checksum))),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(strfmt("Pfannkuchen(%d) = %d", n, want.max_flips)),
            std::string::npos)
      << out;
}

TEST_F(SchemeTest, Fannkuch7IsTheKnownResult) {
  const auto want = reference::fannkuch(7);
  EXPECT_EQ(want.checksum, 228);
  EXPECT_EQ(want.max_flips, 16);
}

TEST_F(SchemeTest, FastaMatchesReferenceExactly) {
  const int n = 120;
  const std::string out = ev_stdout(benchmark_source(Bench::kFasta, n));
  EXPECT_EQ(out, reference::fasta(n));
}

TEST_F(SchemeTest, Fasta3ProducesWellFormedOutput) {
  const int n = 120;
  const std::string out = ev_stdout(benchmark_source(Bench::kFasta3, n));
  EXPECT_NE(out.find(">ONE Homo sapiens alu"), std::string::npos);
  EXPECT_NE(out.find(">TWO IUB ambiguity codes"), std::string::npos);
  EXPECT_NE(out.find(">THREE Homo sapiens frequency"), std::string::npos);
  // Same sequence lengths as fasta, different sampling method.
  EXPECT_EQ(out.size(), reference::fasta(n).size());
}

TEST_F(SchemeTest, NBodyMatchesReference) {
  const int steps = 100;
  const auto want = reference::nbody(steps);
  const std::string out = ev_stdout(benchmark_source(Bench::kNBody, steps));
  // Two energy lines; parse them back.
  const auto lines = split(out, '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NEAR(std::stod(lines[0]), want.initial_energy, 1e-8) << out;
  EXPECT_NEAR(std::stod(lines[1]), want.final_energy, 1e-8) << out;
  // The canonical check: initial energy of the Jovian system.
  EXPECT_NEAR(want.initial_energy, -0.169075164, 1e-8);
}

TEST_F(SchemeTest, SpectralNormMatchesReference) {
  const int n = 16;
  const double want = reference::spectral_norm(n);
  const std::string out =
      ev_stdout(benchmark_source(Bench::kSpectralNorm, n));
  EXPECT_NEAR(std::stod(out), want, 1e-7) << out;  // display renders %.9g
}

TEST_F(SchemeTest, MandelbrotMatchesReference) {
  const int n = 16;
  const std::string out = ev_stdout(benchmark_source(Bench::kMandelbrot, n));
  EXPECT_NE(out.find(strfmt("inside: %lld",
                            static_cast<long long>(
                                reference::mandelbrot_inside(n)))),
            std::string::npos)
      << out;
}

TEST_F(SchemeTest, BenchmarksRunAtTestSizes) {
  for (int i = 0; i < kBenchCount; ++i) {
    const auto b = static_cast<Bench>(i);
    const std::string out =
        ev_stdout(benchmark_source(b, benchmark_test_size(b)));
    EXPECT_FALSE(out.empty()) << benchmark_name(b);
  }
}

}  // namespace
}  // namespace mv::scheme
