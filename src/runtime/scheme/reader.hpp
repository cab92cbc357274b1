#pragma once

// The Vessel reader: s-expression lexer + parser producing Value trees.
// Supports the dialect the benchmark programs and prelude use: lists, dotted
// pairs, quote/quasiquote sugar, #t/#f, characters (#\a, #\space, #\newline),
// strings with escapes, fixnums, flonums (incl. scientific notation), and
// comments (; to end of line, #| ... |# blocks).

#include <string>
#include <vector>

#include "runtime/scheme/value.hpp"
#include "support/result.hpp"

namespace mv::scheme {

class Engine;

class Reader {
 public:
  explicit Reader(Engine& engine) : engine_(&engine) {}

  // Parse every top-level form in `src`.
  Result<std::vector<Value>> read_all(const std::string& src);

 private:
  struct Token {
    enum class Kind {
      kLParen,
      kRParen,
      kQuote,
      kQuasiquote,
      kUnquote,
      kDot,
      kAtom,
      kString,
      kChar,
      kHashParen,  // #( vector literal
      kEof,
    };
    Kind kind = Kind::kEof;
    std::string text;
    std::size_t line = 0;
  };

  Result<Token> next_token(const std::string& src, std::size_t* pos,
                           std::size_t* line);
  Result<Value> parse(const std::string& src, std::size_t* pos,
                      std::size_t* line);
  Result<Value> parse_list(const std::string& src, std::size_t* pos,
                           std::size_t* line);
  Result<Value> atom_to_value(const std::string& text);

  Engine* engine_;
  // Active parse() recursion depth; bounds host-stack use on pathological
  // nesting like ((((...)))).
  int depth_ = 0;
};

}  // namespace mv::scheme
