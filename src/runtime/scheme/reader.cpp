#include "runtime/scheme/reader.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "runtime/scheme/engine.hpp"
#include "support/strings.hpp"

namespace mv::scheme {

Result<Reader::Token> Reader::next_token(const std::string& src,
                                         std::size_t* pos,
                                         std::size_t* line) {
  const std::size_t n = src.size();
  // Skip whitespace and comments.
  for (;;) {
    while (*pos < n && (std::isspace(static_cast<unsigned char>(src[*pos])))) {
      if (src[*pos] == '\n') ++*line;
      ++*pos;
    }
    if (*pos < n && src[*pos] == ';') {
      while (*pos < n && src[*pos] != '\n') ++*pos;
      continue;
    }
    if (*pos + 1 < n && src[*pos] == '#' && src[*pos + 1] == '|') {
      const std::size_t open_line = *line;
      *pos += 2;
      int depth = 1;
      while (*pos + 1 < n && depth > 0) {
        if (src[*pos] == '|' && src[*pos + 1] == '#') {
          --depth;
          *pos += 2;
        } else if (src[*pos] == '#' && src[*pos + 1] == '|') {
          ++depth;
          *pos += 2;
        } else {
          if (src[*pos] == '\n') ++*line;
          ++*pos;
        }
      }
      if (depth > 0) {
        *pos = n;  // do not rescan the comment tail as an atom
        return err(Err::kParse,
                   strfmt("unterminated block comment opened at line %zu",
                          open_line));
      }
      continue;
    }
    break;
  }
  Token tok;
  tok.line = *line;
  if (*pos >= n) {
    tok.kind = Token::Kind::kEof;
    return tok;
  }
  const char c = src[*pos];
  if (c == '(' || c == '[') {
    ++*pos;
    tok.kind = Token::Kind::kLParen;
    return tok;
  }
  if (c == ')' || c == ']') {
    ++*pos;
    tok.kind = Token::Kind::kRParen;
    return tok;
  }
  if (c == '\'') {
    ++*pos;
    tok.kind = Token::Kind::kQuote;
    return tok;
  }
  if (c == '`') {
    ++*pos;
    tok.kind = Token::Kind::kQuasiquote;
    return tok;
  }
  if (c == ',') {
    ++*pos;
    tok.kind = Token::Kind::kUnquote;
    return tok;
  }
  if (c == '"') {
    ++*pos;
    std::string s;
    while (*pos < n && src[*pos] != '"') {
      char ch = src[*pos];
      if (ch == '\\' && *pos + 1 < n) {
        ++*pos;
        const char esc = src[*pos];
        switch (esc) {
          case 'n': ch = '\n'; break;
          case 't': ch = '\t'; break;
          case 'r': ch = '\r'; break;
          case '\\': ch = '\\'; break;
          case '"': ch = '"'; break;
          default: ch = esc; break;
        }
      }
      s.push_back(ch);
      ++*pos;
    }
    if (*pos >= n) return err(Err::kParse, "unterminated string literal");
    ++*pos;  // closing quote
    tok.kind = Token::Kind::kString;
    tok.text = std::move(s);
    return tok;
  }
  if (c == '#') {
    if (*pos + 1 < n && src[*pos + 1] == '(') {
      *pos += 2;
      tok.kind = Token::Kind::kHashParen;
      return tok;
    }
    if (*pos + 1 < n && src[*pos + 1] == '\\') {
      *pos += 2;
      // Character literal: read the name.
      std::string name;
      while (*pos < n && !std::isspace(static_cast<unsigned char>(src[*pos])) &&
             src[*pos] != '(' && src[*pos] != ')') {
        name.push_back(src[*pos]);
        ++*pos;
        if (name.size() == 1 &&
            !std::isalpha(static_cast<unsigned char>(name[0]))) {
          break;  // punctuation chars are single, e.g. #\(
        }
      }
      tok.kind = Token::Kind::kChar;
      tok.text = std::move(name);
      return tok;
    }
    // #t / #f and other hash atoms fall through as atoms.
  }
  // Atom: read until delimiter.
  std::string text;
  while (*pos < n && !std::isspace(static_cast<unsigned char>(src[*pos])) &&
         src[*pos] != '(' && src[*pos] != ')' && src[*pos] != '[' &&
         src[*pos] != ']' && src[*pos] != ';' && src[*pos] != '"') {
    text.push_back(src[*pos]);
    ++*pos;
  }
  if (text == ".") {
    tok.kind = Token::Kind::kDot;
    return tok;
  }
  tok.kind = Token::Kind::kAtom;
  tok.text = std::move(text);
  return tok;
}

Result<Value> Reader::atom_to_value(const std::string& text) {
  if (text == "#t" || text == "#true") return Value::boolean(true);
  if (text == "#f" || text == "#false") return Value::boolean(false);
  // Number?
  if (!text.empty() &&
      (std::isdigit(static_cast<unsigned char>(text[0])) ||
       ((text[0] == '-' || text[0] == '+' || text[0] == '.') &&
        text.size() > 1 &&
        (std::isdigit(static_cast<unsigned char>(text[1])) ||
         text[1] == '.')))) {
    const bool flonum = text.find('.') != std::string::npos ||
                        text.find('e') != std::string::npos ||
                        text.find('E') != std::string::npos;
    char* end = nullptr;
    if (flonum) {
      const double d = std::strtod(text.c_str(), &end);
      if (end == text.c_str() + text.size()) return Value::real(d);
    } else {
      errno = 0;
      const long long i = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() + text.size()) {
        // strtoll clamps to LLONG_MIN/MAX on overflow; surface the bad
        // literal instead of silently reading a different number.
        if (errno == ERANGE) {
          return err(Err::kParse, "integer literal overflow: " + text);
        }
        return Value::integer(static_cast<std::int64_t>(i));
      }
    }
  }
  return Value::symbol(engine_->intern(text));
}

Result<Value> Reader::parse_list(const std::string& src, std::size_t* pos,
                                 std::size_t* line) {
  // Called after consuming '('. Collect elements; handle dotted tails.
  std::vector<Value> items;
  RootScope scope(engine_->heap());
  Value tail = Value::nil();
  for (;;) {
    const std::size_t save = *pos;
    MV_ASSIGN_OR_RETURN(const Token tok, next_token(src, pos, line));
    if (tok.kind == Token::Kind::kEof) {
      return err(Err::kParse, "unterminated list");
    }
    if (tok.kind == Token::Kind::kRParen) break;
    if (tok.kind == Token::Kind::kDot) {
      if (items.empty()) {
        return err(Err::kParse,
                   strfmt("dotted pair without car at line %zu", tok.line));
      }
      MV_ASSIGN_OR_RETURN(tail, parse(src, pos, line));
      scope.add(tail);
      if (tail.tag == Value::Tag::kEof) {
        return err(Err::kParse, "unexpected end of input after .");
      }
      MV_ASSIGN_OR_RETURN(const Token close, next_token(src, pos, line));
      if (close.kind != Token::Kind::kRParen) {
        return err(Err::kParse, "expected ) after dotted tail");
      }
      break;
    }
    *pos = save;  // reparse the element from scratch
    MV_ASSIGN_OR_RETURN(const Value item, parse(src, pos, line));
    scope.add(item);
    items.push_back(item);
  }
  Value list = tail;
  for (std::size_t i = items.size(); i-- > 0;) {
    scope.add(list);
    MV_ASSIGN_OR_RETURN(list, engine_->cons(items[i], list));
  }
  return list;
}

Result<Value> Reader::parse(const std::string& src, std::size_t* pos,
                            std::size_t* line) {
  // Each nesting level costs one host C++ frame (parse -> parse_list ->
  // parse); cap it so pathological input errors instead of overflowing the
  // host stack. Budget per level, parse + parse_list by -fstack-usage
  // (GCC 12): ~1 KiB at -O2/-O3, 2.4 KiB at -O0, and 9.0 KiB (-O2) to
  // 13 KiB (-O3) under ASan/UBSan with -D_GLIBCXX_ASSERTIONS. 1024 levels
  // thus need at most ~13 MiB of the 16 MiB task stack in every build CI
  // runs.
  constexpr int kMaxDepth = 1024;
  if (depth_ >= kMaxDepth) {
    return err(Err::kParse, "expression nesting too deep");
  }
  ++depth_;
  struct DepthGuard {
    int* d;
    ~DepthGuard() { --*d; }
  } guard{&depth_};
  MV_ASSIGN_OR_RETURN(const Token tok, next_token(src, pos, line));
  switch (tok.kind) {
    case Token::Kind::kEof:
      return Value::eof();
    case Token::Kind::kLParen:
      return parse_list(src, pos, line);
    case Token::Kind::kRParen:
      return err(Err::kParse, strfmt("unexpected ) at line %zu", tok.line));
    case Token::Kind::kDot:
      return err(Err::kParse, strfmt("unexpected . at line %zu", tok.line));
    case Token::Kind::kQuote:
    case Token::Kind::kQuasiquote:
    case Token::Kind::kUnquote: {
      const char* name = tok.kind == Token::Kind::kQuote ? "quote"
                         : tok.kind == Token::Kind::kQuasiquote ? "quasiquote"
                                                                : "unquote";
      MV_ASSIGN_OR_RETURN(const Value inner, parse(src, pos, line));
      if (inner.tag == Value::Tag::kEof) {
        return err(Err::kParse,
                   std::string("unexpected end of input after ") + name);
      }
      RootScope scope(engine_->heap());
      scope.add(inner);
      MV_ASSIGN_OR_RETURN(const Value rest, engine_->cons(inner, Value::nil()));
      scope.add(rest);
      return engine_->cons(Value::symbol(engine_->intern(name)), rest);
    }
    case Token::Kind::kString:
      return engine_->make_string(tok.text);
    case Token::Kind::kChar: {
      if (tok.text == "space") return Value::character(' ');
      if (tok.text == "newline") return Value::character('\n');
      if (tok.text == "tab") return Value::character('\t');
      if (tok.text.size() == 1) return Value::character(tok.text[0]);
      return err(Err::kParse, "bad character literal #\\" + tok.text);
    }
    case Token::Kind::kHashParen: {
      // Vector literal: parse as list then convert.
      MV_ASSIGN_OR_RETURN(Value list, parse_list(src, pos, line));
      RootScope scope(engine_->heap());
      scope.add(list);
      std::vector<Value> items;
      for (Value v = list; v.is_pair(); v = v.cell->cdr) {
        items.push_back(v.cell->car);
      }
      MV_ASSIGN_OR_RETURN(const Value vec,
                          engine_->make_vector(items.size(), Value::nil()));
      for (std::size_t i = 0; i < items.size(); ++i) {
        vec.cell->vec[i] = items[i];
      }
      return vec;
    }
    case Token::Kind::kAtom:
      return atom_to_value(tok.text);
  }
  return err(Err::kParse, "reader: unreachable");
}

Result<Value> Reader::read_one(const std::string& src, std::size_t* pos) {
  std::size_t line = 1;
  return parse(src, pos, &line);
}

Result<std::vector<Value>> Reader::read_all(const std::string& src) {
  std::vector<Value> forms;
  RootScope scope(engine_->heap());
  std::size_t pos = 0;
  std::size_t line = 1;
  for (;;) {
    MV_ASSIGN_OR_RETURN(const Value form, parse(src, &pos, &line));
    if (form.tag == Value::Tag::kEof) break;
    scope.add(form);
    forms.push_back(form);
  }
  return forms;
}

}  // namespace mv::scheme
