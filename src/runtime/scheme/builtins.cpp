#include <algorithm>
#include <cerrno>
#include <cmath>

#include "runtime/scheme/engine.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

// The Vessel builtin library: the native procedures the benchmark programs
// and the prelude rely on.

namespace mv::scheme {

namespace {

Status arity_error(const char* name, std::size_t want, std::size_t got) {
  return err(Err::kInval, strfmt("%s: expected %zu argument(s), got %zu", name,
                                 want, got));
}

Status need(const char* name, Args args, std::size_t n) {
  if (args.size() != n) return arity_error(name, n, args.size());
  return Status::ok();
}

Status need_at_least(const char* name, Args args,
                     std::size_t n) {
  if (args.size() < n) return arity_error(name, n, args.size());
  return Status::ok();
}

Result<std::int64_t> want_int(const char* name, const Value& v) {
  if (!v.is_int()) {
    return err(Err::kInval, std::string(name) + ": expected integer");
  }
  return v.i;
}

// The longest vector or string a guest may make: 256x the longest a Fig 13
// program makes (fasta's 4 096-entry lookup table), and at most 16 MiB of
// host memory for a vector's slots.
constexpr std::int64_t kMaxObjectSize = std::int64_t{1} << 20;

// A vector or string length: EINVAL below zero, ERANGE past kMaxObjectSize.
Result<std::size_t> want_size(const char* name, const Value& v) {
  MV_ASSIGN_OR_RETURN(const std::int64_t n, want_int(name, v));
  if (n < 0) return err(Err::kInval, std::string(name) + ": negative size");
  if (n > kMaxObjectSize) {
    return err(Err::kRange, strfmt("%s: size %lld out of range", name,
                                   static_cast<long long>(n)));
  }
  return static_cast<std::size_t>(n);
}

Result<double> want_num(const char* name, const Value& v) {
  if (!v.is_number()) {
    return err(Err::kInval, std::string(name) + ": expected number");
  }
  return v.as_real();
}

Result<Cell*> want_pair(const char* name, const Value& v) {
  if (!v.is_pair()) {
    return err(Err::kInval, std::string(name) + ": expected pair");
  }
  return v.cell;
}

Result<Cell*> want_string(const char* name, const Value& v) {
  if (!v.is_string()) {
    return err(Err::kInval, std::string(name) + ": expected string");
  }
  return v.cell;
}

Result<Cell*> want_vector(const char* name, const Value& v) {
  if (!v.is_vector()) {
    return err(Err::kInval, std::string(name) + ": expected vector");
  }
  return v.cell;
}

// Numeric fold; `op` combines two numbers with int/real contagion.
Result<Value> numeric_fold(const char* name, Args args,
                           Value seed,
                           Value (*op)(const Value&, const Value&)) {
  if (args.size() == 1) {
    // Single operand: identity for +/* and, crucially, for min/max (folding
    // the seed in would turn (min 5) into 0).
    if (!args[0].is_number()) {
      return err(Err::kInval, std::string(name) + ": expected number");
    }
    return args[0];
  }
  Value acc = seed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Value& v = args[i];
    if (!v.is_number()) {
      return err(Err::kInval, std::string(name) + ": expected number");
    }
    if (i == 0 && args.size() > 1) {
      acc = v;
      continue;
    }
    acc = op(acc, v);
  }
  return acc;
}

Value num_min(const Value& a, const Value& b) {
  return a.is_int() && b.is_int() ? Value::integer(std::min(a.i, b.i))
                                  : Value::real(std::min(a.as_real(),
                                                         b.as_real()));
}

Value num_max(const Value& a, const Value& b) {
  return a.is_int() && b.is_int() ? Value::integer(std::max(a.i, b.i))
                                  : Value::real(std::max(a.as_real(),
                                                         b.as_real()));
}

Result<Value> numeric_compare(const char* name, Args args,
                              bool (*cmp)(const Value&, const Value&)) {
  MV_RETURN_IF_ERROR(need_at_least(name, args, 2));
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    MV_RETURN_IF_ERROR(want_num(name, args[i]).status());
    MV_RETURN_IF_ERROR(want_num(name, args[i + 1]).status());
    if (!cmp(args[i], args[i + 1])) return Value::boolean(false);
  }
  return Value::boolean(true);
}

}  // namespace

void Engine::register_builtins() {
  // --- arithmetic ------------------------------------------------------------
  define_builtin("+", [](Engine&, Args args) -> Result<Value> {
    return numeric_fold("+", args, Value::integer(0), num_add);
  });
  define_builtin("*", [](Engine&, Args args) -> Result<Value> {
    return numeric_fold("*", args, Value::integer(1), num_mul);
  });
  define_builtin("-", [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("-", args, 1));
    if (args.size() == 1) {
      if (args[0].is_int()) return Value::integer(fix_neg(args[0].i));
      MV_ASSIGN_OR_RETURN(const double d, want_num("-", args[0]));
      return Value::real(-d);
    }
    return numeric_fold("-", args, Value::integer(0), num_sub);
  });
  define_builtin("/", [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("/", args, 1));
    MV_ASSIGN_OR_RETURN(const double first, want_num("/", args[0]));
    if (args.size() == 1) {
      if (first == 0) return err(Err::kInval, "/: division by zero");
      return Value::real(1.0 / first);
    }
    Value acc = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
      MV_ASSIGN_OR_RETURN(const double b, want_num("/", args[i]));
      if (b == 0) return err(Err::kInval, "/: division by zero");
      acc = num_div(acc, args[i]);
    }
    return acc;
  });
  define_builtin("quotient",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("quotient", args, 2));
    MV_ASSIGN_OR_RETURN(const std::int64_t a, want_int("quotient", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t b, want_int("quotient", args[1]));
    if (b == 0) return err(Err::kInval, "quotient: division by zero");
    return Value::integer(fix_quotient(a, b));
  });
  define_builtin("remainder",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("remainder", args, 2));
    MV_ASSIGN_OR_RETURN(const std::int64_t a, want_int("remainder", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t b, want_int("remainder", args[1]));
    if (b == 0) return err(Err::kInval, "remainder: division by zero");
    return Value::integer(fix_remainder(a, b));
  });
  define_builtin("modulo",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("modulo", args, 2));
    MV_ASSIGN_OR_RETURN(const std::int64_t a, want_int("modulo", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t b, want_int("modulo", args[1]));
    if (b == 0) return err(Err::kInval, "modulo: division by zero");
    return Value::integer(fix_modulo(a, b));
  });
  define_builtin("abs", [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("abs", args, 1));
    if (args[0].is_int()) {
      return Value::integer(args[0].i < 0 ? fix_neg(args[0].i) : args[0].i);
    }
    MV_ASSIGN_OR_RETURN(const double d, want_num("abs", args[0]));
    return Value::real(std::fabs(d));
  });
  define_builtin("min", [](Engine&, Args args) -> Result<Value> {
    return numeric_fold("min", args, Value::integer(0), num_min);
  });
  define_builtin("max", [](Engine&, Args args) -> Result<Value> {
    return numeric_fold("max", args, Value::integer(0), num_max);
  });

  const auto unary_real = [this](const char* name, double (*fn)(double)) {
    define_builtin(name,
                   [name, fn](Engine&, Args args)
                       -> Result<Value> {
      MV_RETURN_IF_ERROR(need(name, args, 1));
      MV_ASSIGN_OR_RETURN(const double d, want_num(name, args[0]));
      return Value::real(fn(d));
    });
  };
  unary_real("sqrt", [](double d) { return std::sqrt(d); });
  unary_real("sin", [](double d) { return std::sin(d); });
  unary_real("cos", [](double d) { return std::cos(d); });
  unary_real("tan", [](double d) { return std::tan(d); });
  unary_real("exp", [](double d) { return std::exp(d); });
  unary_real("log", [](double d) { return std::log(d); });
  unary_real("atan", [](double d) { return std::atan(d); });

  define_builtin("expt",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("expt", args, 2));
    MV_ASSIGN_OR_RETURN(const double base, want_num("expt", args[0]));
    MV_ASSIGN_OR_RETURN(const double power, want_num("expt", args[1]));
    if (args[0].is_int() && args[1].is_int() && args[1].i >= 0) {
      // Square-and-multiply, in log2(exponent) steps: fixnum products wrap
      // modulo 2^64, where multiplication is associative, so the result is
      // the repeated product's.
      std::int64_t r = 1;
      std::int64_t b = args[0].i;
      for (auto e = static_cast<std::uint64_t>(args[1].i); e != 0; e >>= 1) {
        if ((e & 1) != 0) r = fix_mul(r, b);
        b = fix_mul(b, b);
      }
      return Value::integer(r);
    }
    return Value::real(std::pow(base, power));
  });

  const auto to_int_fn = [this](const char* name, double (*fn)(double)) {
    define_builtin(name,
                   [name, fn](Engine&, Args args)
                       -> Result<Value> {
      MV_RETURN_IF_ERROR(need(name, args, 1));
      if (args[0].is_int()) return args[0];
      MV_ASSIGN_OR_RETURN(const double d, want_num(name, args[0]));
      return Value::real(fn(d));
    });
  };
  to_int_fn("floor", [](double d) { return std::floor(d); });
  to_int_fn("ceiling", [](double d) { return std::ceil(d); });
  to_int_fn("round", [](double d) { return std::nearbyint(d); });
  to_int_fn("truncate", [](double d) { return std::trunc(d); });

  define_builtin("exact->inexact",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("exact->inexact", args, 1));
    MV_ASSIGN_OR_RETURN(const double d, want_num("exact->inexact", args[0]));
    return Value::real(d);
  });
  define_builtin("inexact->exact",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("inexact->exact", args, 1));
    if (args[0].is_int()) return args[0];
    MV_ASSIGN_OR_RETURN(const double d, want_num("inexact->exact", args[0]));
    if (!fixnum_range(d)) {
      return err(Err::kRange, strfmt("inexact->exact: %g out of range", d));
    }
    return Value::integer(static_cast<std::int64_t>(d));
  });

  define_builtin("=", [](Engine&, Args args) -> Result<Value> {
    return numeric_compare("=", args, num_eq);
  });
  define_builtin("<", [](Engine&, Args args) -> Result<Value> {
    return numeric_compare("<", args, num_lt);
  });
  define_builtin(">", [](Engine&, Args args) -> Result<Value> {
    return numeric_compare(">", args, num_gt);
  });
  define_builtin("<=", [](Engine&, Args args) -> Result<Value> {
    return numeric_compare("<=", args, [](const Value& a, const Value& b) {
      return a.as_real() <= b.as_real();
    });
  });
  define_builtin(">=", [](Engine&, Args args) -> Result<Value> {
    return numeric_compare(">=", args, [](const Value& a, const Value& b) {
      return a.as_real() >= b.as_real();
    });
  });

  const auto predicate = [this](const char* name,
                                bool (*fn)(const Value&)) {
    define_builtin(name, [name, fn](Engine&, Args args)
                             -> Result<Value> {
      MV_RETURN_IF_ERROR(need(name, args, 1));
      return Value::boolean(fn(args[0]));
    });
  };
  predicate("zero?", [](const Value& v) {
    return v.is_number() && v.as_real() == 0;
  });
  predicate("positive?", [](const Value& v) {
    return v.is_number() && v.as_real() > 0;
  });
  predicate("negative?", [](const Value& v) {
    return v.is_number() && v.as_real() < 0;
  });
  predicate("even?", num_even);
  predicate("odd?", [](const Value& v) { return v.is_int() && v.i % 2 != 0; });
  predicate("number?", [](const Value& v) { return v.is_number(); });
  predicate("integer?", [](const Value& v) { return v.is_int(); });
  predicate("real?", [](const Value& v) { return v.is_number(); });
  predicate("null?", [](const Value& v) { return v.is_nil(); });
  predicate("pair?", [](const Value& v) { return v.is_pair(); });
  predicate("boolean?", [](const Value& v) { return v.is_bool(); });
  predicate("symbol?", [](const Value& v) { return v.is_sym(); });
  predicate("string?", [](const Value& v) { return v.is_string(); });
  predicate("vector?", [](const Value& v) { return v.is_vector(); });
  predicate("char?", [](const Value& v) { return v.is_char(); });
  predicate("procedure?", [](const Value& v) { return v.is_callable(); });
  predicate("eof-object?", [](const Value& v) {
    return v.tag == Value::Tag::kEof;
  });

  define_builtin("not", [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("not", args, 1));
    return Value::boolean(!args[0].truthy());
  });

  // --- equality -----------------------------------------------------------------
  define_builtin("eq?", [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("eq?", args, 2));
    return Value::boolean(value_eq(args[0], args[1]));
  });
  define_builtin("eqv?",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("eqv?", args, 2));
    return Value::boolean(value_eqv(args[0], args[1]));
  });
  define_builtin("equal?",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("equal?", args, 2));
    return Value::boolean(value_equal(args[0], args[1]));
  });

  // --- pairs and lists ------------------------------------------------------------
  define_builtin("cons",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("cons", args, 2));
    return e.cons(args[0], args[1]);
  });
  define_builtin("car", [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("car", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const p, want_pair("car", args[0]));
    return p->car;
  });
  define_builtin("cdr", [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("cdr", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const p, want_pair("cdr", args[0]));
    return p->cdr;
  });
  define_builtin("set-car!",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("set-car!", args, 2));
    MV_ASSIGN_OR_RETURN(Cell* const p, want_pair("set-car!", args[0]));
    e.heap().write_barrier(p);
    p->car = args[1];
    return Value::unspecified();
  });
  define_builtin("set-cdr!",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("set-cdr!", args, 2));
    MV_ASSIGN_OR_RETURN(Cell* const p, want_pair("set-cdr!", args[0]));
    e.heap().write_barrier(p);
    p->cdr = args[1];
    return Value::unspecified();
  });
  define_builtin("list",
                 [](Engine& e, Args args) -> Result<Value> {
    return e.make_list(args);
  });
  define_builtin("length",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("length", args, 1));
    std::int64_t n = 0;
    for (Value v = args[0]; !v.is_nil(); v = v.cell->cdr) {
      if (!v.is_pair()) return err(Err::kInval, "length: improper list");
      ++n;
    }
    return Value::integer(n);
  });
  define_builtin("append",
                 [](Engine& e, Args args) -> Result<Value> {
    RootScope scope(e.heap());
    Value result = args.empty() ? Value::nil() : args.back();
    scope.add(result);
    for (std::size_t i = args.size() - 1; i-- > 0;) {
      std::vector<Value> items;
      for (Value v = args[i]; v.is_pair(); v = v.cell->cdr) {
        items.push_back(v.cell->car);
      }
      for (std::size_t j = items.size(); j-- > 0;) {
        scope.add(result);
        MV_ASSIGN_OR_RETURN(result, e.cons(items[j], result));
      }
    }
    return result;
  });
  define_builtin("reverse",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("reverse", args, 1));
    RootScope scope(e.heap());
    Value out = Value::nil();
    for (Value v = args[0]; v.is_pair(); v = v.cell->cdr) {
      scope.add(out);
      MV_ASSIGN_OR_RETURN(out, e.cons(v.cell->car, out));
    }
    return out;
  });

  // --- vectors -----------------------------------------------------------------------
  define_builtin("make-vector",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("make-vector", args, 1));
    MV_ASSIGN_OR_RETURN(const std::size_t n, want_size("make-vector", args[0]));
    return e.make_vector(n, args.size() > 1 ? args[1] : Value::integer(0));
  });
  define_builtin("vector",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_ASSIGN_OR_RETURN(const Value v, e.make_vector(args.size(),
                                                     Value::nil()));
    for (std::size_t i = 0; i < args.size(); ++i) v.cell->vec[i] = args[i];
    return v;
  });
  define_builtin("vector-ref",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("vector-ref", args, 2));
    MV_ASSIGN_OR_RETURN(Cell* const v, want_vector("vector-ref", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t i, want_int("vector-ref", args[1]));
    if (!index_ok(i, v->vec.size())) {
      return err(Err::kRange, strfmt("vector-ref: index %lld out of range",
                                     static_cast<long long>(i)));
    }
    return v->vec[static_cast<std::size_t>(i)];
  });
  define_builtin("vector-set!",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("vector-set!", args, 3));
    MV_ASSIGN_OR_RETURN(Cell* const v, want_vector("vector-set!", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t i, want_int("vector-set!", args[1]));
    if (!index_ok(i, v->vec.size())) {
      return err(Err::kRange, "vector-set!: index out of range");
    }
    e.heap().write_barrier(v);
    v->vec[static_cast<std::size_t>(i)] = args[2];
    return Value::unspecified();
  });
  define_builtin("vector-length",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("vector-length", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const v, want_vector("vector-length", args[0]));
    return Value::integer(static_cast<std::int64_t>(v->vec.size()));
  });
  define_builtin("vector-fill!",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("vector-fill!", args, 2));
    MV_ASSIGN_OR_RETURN(Cell* const v, want_vector("vector-fill!", args[0]));
    e.heap().write_barrier(v);
    std::fill(v->vec.begin(), v->vec.end(), args[1]);
    return Value::unspecified();
  });

  // --- strings -----------------------------------------------------------------------
  define_builtin("string-length",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string-length", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string-length", args[0]));
    return Value::integer(static_cast<std::int64_t>(s->str.size()));
  });
  define_builtin("string-append",
                 [](Engine& e, Args args) -> Result<Value> {
    std::string out;
    for (const Value& v : args) {
      MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string-append", v));
      out += s->str;
    }
    return e.make_string(std::move(out));
  });
  define_builtin("substring",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("substring", args, 3));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("substring", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t from, want_int("substring", args[1]));
    MV_ASSIGN_OR_RETURN(const std::int64_t to, want_int("substring", args[2]));
    if (from < 0 || to < from ||
        static_cast<std::size_t>(to) > s->str.size()) {
      return err(Err::kRange, "substring: bad range");
    }
    return e.make_string(s->str.substr(static_cast<std::size_t>(from),
                                       static_cast<std::size_t>(to - from)));
  });
  define_builtin("string-ref",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string-ref", args, 2));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string-ref", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t i, want_int("string-ref", args[1]));
    if (i < 0 || static_cast<std::size_t>(i) >= s->str.size()) {
      return err(Err::kRange, "string-ref: index out of range");
    }
    return Value::character(s->str[static_cast<std::size_t>(i)]);
  });
  define_builtin("string=?",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string=?", args, 2));
    MV_ASSIGN_OR_RETURN(Cell* const a, want_string("string=?", args[0]));
    MV_ASSIGN_OR_RETURN(Cell* const b, want_string("string=?", args[1]));
    return Value::boolean(a->str == b->str);
  });
  define_builtin("make-string",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("make-string", args, 1));
    MV_ASSIGN_OR_RETURN(const std::size_t n, want_size("make-string", args[0]));
    const char fill = args.size() > 1 && args[1].is_char() ? args[1].c : ' ';
    return e.make_string(std::string(n, fill));
  });
  define_builtin("string->number",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string->number", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string->number", args[0]));
    char* end = nullptr;
    if (s->str.find('.') == std::string::npos) {
      // Out of fixnum range (ERANGE) is not an exact integer, as in the
      // reader; strtoll would clamp it to a different number.
      errno = 0;
      const long long i = std::strtoll(s->str.c_str(), &end, 10);
      if (end == s->str.c_str() + s->str.size() && !s->str.empty() &&
          errno != ERANGE) {
        return Value::integer(i);
      }
    }
    const double d = std::strtod(s->str.c_str(), &end);
    if (end == s->str.c_str() + s->str.size() && !s->str.empty()) {
      return Value::real(d);
    }
    return Value::boolean(false);
  });
  define_builtin("number->string",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("number->string", args, 1));
    if (!args[0].is_number()) {
      return err(Err::kInval, "number->string: expected number");
    }
    return e.make_string(e.to_display(args[0]));
  });
  define_builtin("symbol->string",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("symbol->string", args, 1));
    if (!args[0].is_sym()) {
      return err(Err::kInval, "symbol->string: expected symbol");
    }
    return e.make_string(e.sym_name(args[0].sym));
  });
  define_builtin("string->symbol",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string->symbol", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string->symbol", args[0]));
    return Value::symbol(e.intern(s->str));
  });
  define_builtin("string-copy",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string-copy", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string-copy", args[0]));
    return e.make_string(s->str);
  });
  define_builtin("string-set!",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string-set!", args, 3));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string-set!", args[0]));
    MV_ASSIGN_OR_RETURN(const std::int64_t i, want_int("string-set!", args[1]));
    if (!args[2].is_char()) return err(Err::kInval, "string-set!: not a char");
    if (!index_ok(i, s->str.size())) {
      return err(Err::kRange, "string-set!: index out of range");
    }
    e.heap().write_barrier(s);
    s->str[static_cast<std::size_t>(i)] = args[2].c;
    return Value::unspecified();
  });

  // --- characters ----------------------------------------------------------------------
  define_builtin("char->integer",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("char->integer", args, 1));
    if (!args[0].is_char()) return err(Err::kInval, "char->integer");
    return Value::integer(static_cast<unsigned char>(args[0].c));
  });
  define_builtin("integer->char",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("integer->char", args, 1));
    MV_ASSIGN_OR_RETURN(const std::int64_t i, want_int("integer->char",
                                                       args[0]));
    return Value::character(static_cast<char>(i));
  });
  define_builtin("char=?",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("char=?", args, 2));
    return Value::boolean(args[0].is_char() && args[1].is_char() &&
                          args[0].c == args[1].c);
  });

  // --- control -------------------------------------------------------------------------
  define_builtin("apply",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("apply", args, 2));
    std::vector<Value> call_args(args.begin() + 1, args.end() - 1);
    for (Value v = args.back(); v.is_pair(); v = v.cell->cdr) {
      call_args.push_back(v.cell->car);
    }
    return e.apply_value(args[0], call_args);
  });
  define_builtin("error",
                 [](Engine& e, Args args) -> Result<Value> {
    std::string msg = "error:";
    for (const Value& v : args) {
      msg += ' ';
      msg += e.to_display(v);
    }
    return err(Err::kState, msg);
  });

  // --- I/O -----------------------------------------------------------------------------
  define_builtin("display",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("display", args, 1));
    MV_RETURN_IF_ERROR(e.out(e.to_display(args[0])));
    return Value::unspecified();
  });
  define_builtin("write",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("write", args, 1));
    MV_RETURN_IF_ERROR(e.out(e.to_write(args[0])));
    return Value::unspecified();
  });
  define_builtin("newline",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)args;
    MV_RETURN_IF_ERROR(e.out("\n"));
    return Value::unspecified();
  });
  define_builtin("write-string",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need_at_least("write-string", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("write-string", args[0]));
    MV_RETURN_IF_ERROR(e.out(s->str));
    return Value::unspecified();
  });
  // (load "path") — evaluate a file through the guest filesystem, "a
  // command-line batch interface through which the user can execute a Scheme
  // file (which can include other files)".
  define_builtin("load",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("load", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("load", args[0]));
    MV_RETURN_IF_ERROR(e.load_path(s->str));
    return Value::unspecified();
  });
  define_builtin("flush-output",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)args;
    MV_RETURN_IF_ERROR(e.flush());
    return Value::unspecified();
  });

  // --- system ---------------------------------------------------------------------------
  define_builtin("current-milliseconds",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)args;
    const ros::TimeVal tv = e.sys().vdso_gettimeofday();
    return Value::integer(
        static_cast<std::int64_t>(tv.sec * 1000 + tv.usec / 1000));
  });
  define_builtin("current-seconds",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)args;
    return Value::integer(
        static_cast<std::int64_t>(e.sys().vdso_gettimeofday().sec));
  });
  define_builtin("collect-garbage",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)args;
    e.heap().collect();
    return Value::unspecified();
  });
  define_builtin("gc-stats",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)args;
    const GcStats& st = e.heap().stats();
    std::vector<Value> items{
        Value::integer(static_cast<std::int64_t>(st.collections)),
        Value::integer(static_cast<std::int64_t>(st.cells_allocated)),
        Value::integer(static_cast<std::int64_t>(st.live_cells)),
        Value::integer(static_cast<std::int64_t>(st.chunks_mapped)),
        Value::integer(static_cast<std::int64_t>(st.chunks_unmapped)),
        Value::integer(static_cast<std::int64_t>(st.barrier_hits)),
    };
    return e.make_list(items);
  });
  define_builtin("random",
                 [rng = Rng(0x76657373ull)](Engine&, Args args)
                     mutable -> Result<Value> {
    if (args.empty()) return Value::real(rng.uniform());
    MV_ASSIGN_OR_RETURN(const std::int64_t n, want_int("random", args[0]));
    if (n <= 0) return err(Err::kInval, "random: bound must be positive");
    return Value::integer(
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n))));
  });
  define_builtin("void",
                 [](Engine&, Args) -> Result<Value> {
    return Value::unspecified();
  });
  // --- sorting ---------------------------------------------------------------
  // (sort lst less?) — stable merge sort; less? is any two-argument
  // procedure.
  define_builtin("sort",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("sort", args, 2));
    if (!args[1].is_callable()) {
      return err(Err::kInval, "sort: expected a comparator");
    }
    std::vector<Value> items;
    for (Value v = args[0]; !v.is_nil(); v = v.cell->cdr) {
      if (!v.is_pair()) return err(Err::kInval, "sort: improper list");
      items.push_back(v.cell->car);
    }
    RootScope scope(e.heap());
    for (const Value& v : items) scope.add(v);
    scope.add(args[1]);
    // Stable merge sort driven by the Scheme comparator. std::stable_sort is
    // unusable here: a comparator error must abort cleanly, not throw.
    Status failed = Status::ok();
    const std::function<bool(const Value&, const Value&)> less =
        [&](const Value& a, const Value& b) {
          if (!failed.is_ok()) return false;
          const Value cmp_args[] = {a, b};
          auto r = e.apply_value(args[1], cmp_args);
          if (!r) {
            failed = r.status();
            return false;
          }
          return r->truthy();
        };
    std::vector<Value> tmp(items.size());
    const std::function<void(std::size_t, std::size_t)> msort =
        [&](std::size_t lo, std::size_t hi) {
          if (hi - lo < 2 || !failed.is_ok()) return;
          const std::size_t mid = lo + (hi - lo) / 2;
          msort(lo, mid);
          msort(mid, hi);
          std::size_t a = lo, b = mid, out = lo;
          while (a < mid && b < hi) {
            tmp[out++] = less(items[b], items[a]) ? items[b++] : items[a++];
          }
          while (a < mid) tmp[out++] = items[a++];
          while (b < hi) tmp[out++] = items[b++];
          for (std::size_t i = lo; i < hi; ++i) items[i] = tmp[i];
        };
    msort(0, items.size());
    MV_RETURN_IF_ERROR(failed);
    return e.make_list(items);
  });
  define_builtin("assv",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("assv", args, 2));
    for (Value v = args[1]; v.is_pair(); v = v.cell->cdr) {
      if (v.cell->car.is_pair() &&
          value_eqv(v.cell->car.cell->car, args[0])) {
        return v.cell->car;
      }
    }
    return Value::boolean(false);
  });
  define_builtin("string->list",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string->list", args, 1));
    MV_ASSIGN_OR_RETURN(Cell* const s, want_string("string->list", args[0]));
    std::vector<Value> chars;
    chars.reserve(s->str.size());
    for (const char c : s->str) chars.push_back(Value::character(c));
    return e.make_list(chars);
  });
  define_builtin("list->string",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("list->string", args, 1));
    std::string out;
    for (Value v = args[0]; v.is_pair(); v = v.cell->cdr) {
      if (!v.cell->car.is_char()) {
        return err(Err::kInval, "list->string: expected chars");
      }
      out.push_back(v.cell->car.c);
    }
    return e.make_string(std::move(out));
  });
  define_builtin("string<?",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("string<?", args, 2));
    MV_ASSIGN_OR_RETURN(Cell* const a, want_string("string<?", args[0]));
    MV_ASSIGN_OR_RETURN(Cell* const b, want_string("string<?", args[1]));
    return Value::boolean(a->str < b->str);
  });
  define_builtin("char<?",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("char<?", args, 2));
    if (!args[0].is_char() || !args[1].is_char()) {
      return err(Err::kInval, "char<?: expected chars");
    }
    return Value::boolean(args[0].c < args[1].c);
  });
  const auto char_pred = [this](const char* name, bool (*fn)(char)) {
    define_builtin(name, [name, fn](Engine&, Args args)
                             -> Result<Value> {
      MV_RETURN_IF_ERROR(need(name, args, 1));
      if (!args[0].is_char()) {
        return err(Err::kInval, std::string(name) + ": expected char");
      }
      return Value::boolean(fn(args[0].c));
    });
  };
  char_pred("char-alphabetic?", [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  });
  char_pred("char-numeric?", [](char c) { return c >= '0' && c <= '9'; });
  char_pred("char-whitespace?", [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  });
  define_builtin("char-upcase",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("char-upcase", args, 1));
    if (!args[0].is_char()) return err(Err::kInval, "char-upcase");
    const char c = args[0].c;
    return Value::character(c >= 'a' && c <= 'z'
                                ? static_cast<char>(c - 'a' + 'A')
                                : c);
  });
  define_builtin("char-downcase",
                 [](Engine&, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("char-downcase", args, 1));
    if (!args[0].is_char()) return err(Err::kInval, "char-downcase");
    const char c = args[0].c;
    return Value::character(c >= 'A' && c <= 'Z'
                                ? static_cast<char>(c - 'A' + 'a')
                                : c);
  });
  define_builtin("list-copy",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("list-copy", args, 1));
    std::vector<Value> items;
    for (Value v = args[0]; v.is_pair(); v = v.cell->cdr) {
      items.push_back(v.cell->car);
    }
    return e.make_list(items);
  });

  // --- interpreter threads ----------------------------------------------------
  // (spawn-thread thunk) -> tid. Runs `thunk` on a new runtime thread
  // created through the guest pthread layer: a Linux clone natively, a
  // nested AeroKernel thread under Multiverse (the default pthread
  // override). (thread-join tid) blocks until it finishes.
  define_builtin("spawn-thread",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("spawn-thread", args, 1));
    if (!args[0].is_callable()) {
      return err(Err::kInval, "spawn-thread: expected a procedure");
    }
    MV_ASSIGN_OR_RETURN(const int tid, e.spawn_interpreter_thread(args[0]));
    return Value::integer(tid);
  });
  define_builtin("thread-join",
                 [](Engine& e, Args args) -> Result<Value> {
    MV_RETURN_IF_ERROR(need("thread-join", args, 1));
    MV_ASSIGN_OR_RETURN(const std::int64_t tid, want_int("thread-join",
                                                         args[0]));
    MV_RETURN_IF_ERROR(e.sys().thread_join(static_cast<int>(tid)));
    return Value::unspecified();
  });
  define_builtin("thread-yield",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)args;
    e.sys().thread_yield();
    return Value::unspecified();
  });

  define_builtin("exit",
                 [](Engine& e, Args args) -> Result<Value> {
    (void)e.flush();
    const int code =
        !args.empty() && args[0].is_int() ? static_cast<int>(args[0].i) : 0;
    e.sys().exit_group(code);  // throws GuestExit
    return Value::unspecified();
  });

  // The builtins the VM's call instruction runs inline (vm.cpp). The seven
  // fig13 programs make 12.00 M builtin calls per run at bench size; all
  // but 5 444 (99.95%) take the inline path, where the first ten entries
  // alone took 89.6%. Fig13GenericBuiltinCallsArePinned counts the rest at
  // test size. The tag marks the procedure cells themselves.
  static constexpr std::pair<const char*, Prim> kFastPrims[] = {
      {"+", Prim::kAdd},
      {"-", Prim::kSub},
      {"*", Prim::kMul},
      {"=", Prim::kNumEq},
      {"<", Prim::kLt},
      {">", Prim::kGt},
      {"car", Prim::kCar},
      {"cdr", Prim::kCdr},
      {"vector-ref", Prim::kVectorRef},
      {"vector-set!", Prim::kVectorSet},
      {"/", Prim::kDiv},
      {"modulo", Prim::kModulo},
      {"even?", Prim::kEven},
      {"floor", Prim::kFloor},
      {"sqrt", Prim::kSqrt},
      {"inexact->exact", Prim::kInexactToExact},
      {"null?", Prim::kNull},
      {"cons", Prim::kCons},
      {"string-set!", Prim::kStringSet},
  };
  for (const auto& [name, prim] : kFastPrims) {
    if (Value* const slot = global_slot(intern(name))) slot->cell->prim = prim;
  }
}

Result<Value> Engine::apply_value(Value fn, Args args) {
  if (!fn.is_callable()) {
    return err(Err::kInval, "apply: not a procedure: " + to_display(fn));
  }
  RootScope scope(heap_);
  scope.add(fn);
  for (const Value& a : args) scope.add(a);
  if (fn.cell->type == Cell::Type::kBuiltin) {
    count_step();
    return fn.cell->builtin(*this, args);
  }
  // Bytecode closures (VM engine) apply through the VM, not the tree walker.
  if (fn.cell->proto_idx >= 0) return vm_apply(fn, args);
  Cell* call_env = nullptr;
  MV_RETURN_IF_ERROR(apply_closure_env(fn.cell, args, &call_env).status());
  scope.add(Value::from_cell(call_env));
  Value result = Value::unspecified();
  for (Value body = fn.cell->body; body.is_pair(); body = body.cell->cdr) {
    MV_ASSIGN_OR_RETURN(result, eval(body.cell->car, call_env));
  }
  return result;
}

}  // namespace mv::scheme
