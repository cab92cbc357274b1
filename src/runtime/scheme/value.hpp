#pragma once

// Vessel Scheme value model. Immediates (nil, booleans, fixnums, flonums,
// chars, interned symbols) live in the Value struct; everything else (pairs,
// strings, vectors, closures, environments) lives in GC-managed cells whose
// *pages* are real guest memory (see gc.hpp).

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "support/result.hpp"

namespace mv::scheme {

class Cell;
class Engine;
struct HeapChunk;

using SymId = std::uint32_t;

struct Value {
  enum class Tag : std::uint8_t {
    kNil,
    kUnspecified,
    kEof,
    kBool,
    kInt,
    kReal,
    kChar,
    kSym,
    kCell,
  };

  Tag tag = Tag::kNil;
  union {
    bool b;
    std::int64_t i;
    double d;
    char c;
    SymId sym;
    Cell* cell;
  };

  Value() : tag(Tag::kNil), cell(nullptr) {}

  static Value nil() { return Value{}; }
  static Value unspecified() {
    Value v;
    v.tag = Tag::kUnspecified;
    return v;
  }
  static Value eof() {
    Value v;
    v.tag = Tag::kEof;
    return v;
  }
  static Value boolean(bool b) {
    Value v;
    v.tag = Tag::kBool;
    v.b = b;
    return v;
  }
  static Value integer(std::int64_t i) {
    Value v;
    v.tag = Tag::kInt;
    v.i = i;
    return v;
  }
  static Value real(double d) {
    Value v;
    v.tag = Tag::kReal;
    v.d = d;
    return v;
  }
  static Value character(char c) {
    Value v;
    v.tag = Tag::kChar;
    v.c = c;
    return v;
  }
  static Value symbol(SymId s) {
    Value v;
    v.tag = Tag::kSym;
    v.sym = s;
    return v;
  }
  static Value from_cell(Cell* cell) {
    Value v;
    v.tag = Tag::kCell;
    v.cell = cell;
    return v;
  }

  [[nodiscard]] bool is_nil() const { return tag == Tag::kNil; }
  [[nodiscard]] bool is_bool() const { return tag == Tag::kBool; }
  [[nodiscard]] bool is_int() const { return tag == Tag::kInt; }
  [[nodiscard]] bool is_real() const { return tag == Tag::kReal; }
  [[nodiscard]] bool is_number() const { return is_int() || is_real(); }
  [[nodiscard]] bool is_char() const { return tag == Tag::kChar; }
  [[nodiscard]] bool is_sym() const { return tag == Tag::kSym; }
  [[nodiscard]] bool is_cell() const { return tag == Tag::kCell; }
  [[nodiscard]] bool is_pair() const;
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_vector() const;
  [[nodiscard]] bool is_callable() const;

  // Scheme truthiness: everything but #f is true.
  [[nodiscard]] bool truthy() const { return !(is_bool() && !b); }

  [[nodiscard]] double as_real() const {
    return is_real() ? d : static_cast<double>(i);
  }
};

// A builtin's evaluated arguments. They stay valid for the whole call, even
// when the builtin re-enters the VM.
using Args = std::span<const Value>;

// Builtin procedure: receives evaluated arguments; may allocate.
using BuiltinFn = std::function<Result<Value>(Engine&, Args args)>;

// Builtins the VM's call instruction runs inline for their common operand
// types (vm.cpp). The tag sits on the builtin's cell, so the fast path
// follows the procedure value, whatever name reaches it.
enum class Prim : std::uint8_t {
  kNone,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kModulo,
  kNumEq,
  kLt,
  kGt,
  kEven,
  kFloor,
  kSqrt,
  kInexactToExact,
  kNull,
  kCons,
  kCar,
  kCdr,
  kVectorRef,
  kVectorSet,
  kStringSet,
};

class Cell {
 public:
  enum class Type : std::uint8_t {
    kFree,
    kPair,
    kString,
    kVector,
    kClosure,
    kBuiltin,
    kEnv,
  };

  Type type = Type::kFree;
  bool marked = false;
  // What a call dispatches on besides `type`, kept in the header's
  // padding (the chunk pointer below then costs no cell growth).
  Prim prim = Prim::kNone;      // builtins with a VM fast path
  std::int32_t proto_idx = -1;  // >= 0: bytecode closure (Engine::protos())
  std::uint64_t guest_addr = 0;  // where this cell "lives" in guest memory
  HeapChunk* chunk = nullptr;    // the heap chunk holding guest_addr

  // --- pair ---
  Value car, cdr;
  // --- string ---
  std::string str;
  // --- vector / closure captures ---
  std::vector<Value> vec;
  // --- closure ---
  std::vector<SymId> params;
  SymId rest_param = 0;   // 0 = none; variadic tail parameter otherwise
  bool has_rest = false;
  Value body;             // list of body expressions
  Cell* closure_env = nullptr;
  std::string proc_name;  // for error messages
  // --- builtin ---
  BuiltinFn builtin;
  // --- environment ---
  std::vector<std::pair<SymId, Value>> bindings;
  Cell* parent_env = nullptr;

  void reset() {
    type = Type::kFree;
    marked = false;
    prim = Prim::kNone;
    car = Value{};
    cdr = Value{};
    str.clear();
    vec.clear();
    params.clear();
    has_rest = false;
    body = Value{};
    closure_env = nullptr;
    proc_name.clear();
    proto_idx = -1;
    builtin = nullptr;
    bindings.clear();
    parent_env = nullptr;
  }
};

inline bool Value::is_pair() const {
  return is_cell() && cell->type == Cell::Type::kPair;
}
inline bool Value::is_string() const {
  return is_cell() && cell->type == Cell::Type::kString;
}
inline bool Value::is_vector() const {
  return is_cell() && cell->type == Cell::Type::kVector;
}
inline bool Value::is_callable() const {
  return is_cell() && (cell->type == Cell::Type::kClosure ||
                       cell->type == Cell::Type::kBuiltin);
}

// --- numeric helpers ------------------------------------------------------
// Shared by the builtins and the VM's inline fast path, so both compute
// every result the same way. Fixnums wrap modulo 2^64 in every operation:
// no Scheme program reaches signed-overflow UB or a SIGFPE on the host.

inline std::int64_t fix_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t fix_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t fix_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t fix_neg(std::int64_t a) { return fix_sub(0, a); }
// Truncating division (b != 0). INT64_MIN / -1 wraps to INT64_MIN with
// remainder 0.
inline std::int64_t fix_quotient(std::int64_t a, std::int64_t b) {
  return b == -1 ? fix_neg(a) : a / b;
}
inline std::int64_t fix_remainder(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}
// Floored division's remainder (b != 0): the result takes b's sign.
inline std::int64_t fix_modulo(std::int64_t a, std::int64_t b) {
  const std::int64_t m = fix_remainder(a, b);
  return m != 0 && (m < 0) != (b < 0) ? m + b : m;
}

// Two-operand arithmetic with int/real contagion: two fixnums stay exact,
// anything else is flonum arithmetic. Operands must be numbers.
inline Value num_add(const Value& a, const Value& b) {
  return a.is_int() && b.is_int() ? Value::integer(fix_add(a.i, b.i))
                                  : Value::real(a.as_real() + b.as_real());
}
inline Value num_sub(const Value& a, const Value& b) {
  return a.is_int() && b.is_int() ? Value::integer(fix_sub(a.i, b.i))
                                  : Value::real(a.as_real() - b.as_real());
}
inline Value num_mul(const Value& a, const Value& b) {
  return a.is_int() && b.is_int() ? Value::integer(fix_mul(a.i, b.i))
                                  : Value::real(a.as_real() * b.as_real());
}
// Division by a nonzero number: two fixnums that divide exactly stay
// exact, anything else is flonum division.
inline Value num_div(const Value& a, const Value& b) {
  return a.is_int() && b.is_int() && fix_remainder(a.i, b.i) == 0
             ? Value::integer(fix_quotient(a.i, b.i))
             : Value::real(a.as_real() / b.as_real());
}
// Whether flonum `d` truncates to a fixnum: finite and in [-2^63, 2^63).
// Converting anything else to int64_t is undefined.
inline bool fixnum_range(double d) { return d >= -0x1p63 && d < 0x1p63; }
// Numeric comparisons compare as flonums.
inline bool num_eq(const Value& a, const Value& b) {
  return a.as_real() == b.as_real();
}
inline bool num_lt(const Value& a, const Value& b) {
  return a.as_real() < b.as_real();
}
inline bool num_gt(const Value& a, const Value& b) {
  return a.as_real() > b.as_real();
}

// even?: true only for an even fixnum, false for anything else.
inline bool num_even(const Value& v) { return v.is_int() && v.i % 2 == 0; }

// Whether fixnum `i` indexes a vector or string of `size` elements.
inline bool index_ok(std::int64_t i, std::size_t size) {
  return i >= 0 && static_cast<std::uint64_t>(i) < size;
}

// Structural equality (equal?); eqv? and eq? are shallower.
bool value_eq(const Value& a, const Value& b);     // eq?  (identity)
bool value_eqv(const Value& a, const Value& b);    // eqv? (numbers by value)
bool value_equal(const Value& a, const Value& b);  // equal? (deep)

}  // namespace mv::scheme
