#include "ltl/parser.h"

#include <cctype>
#include <memory>
#include <optional>
#include <vector>

#include "util/rational.h"

namespace verdict::ltl {

namespace {

// --- Unified parse tree -------------------------------------------------------
// One tree covers expressions, LTL, and CTL; lowering decides which subset is
// legal for the requested entry point.

enum class PK : std::uint8_t {
  kInt,
  kReal,
  kBool,
  kIdent,
  kNot,
  kAnd,
  kOr,
  kImplies,
  kIff,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kNeg,
  kX,
  kF,
  kG,
  kU,
  kR,
  kEX,
  kEF,
  kEG,
  kEU,
  kAX,
  kAF,
  kAG,
  kAU,
  kIteCall,  // ite(c, a, b)
  kMinCall,
  kMaxCall,
};

bool is_temporal(PK k) {
  switch (k) {
    case PK::kX:
    case PK::kF:
    case PK::kG:
    case PK::kU:
    case PK::kR:
    case PK::kEX:
    case PK::kEF:
    case PK::kEG:
    case PK::kEU:
    case PK::kAX:
    case PK::kAF:
    case PK::kAG:
    case PK::kAU:
      return true;
    default:
      return false;
  }
}

struct PNode {
  PK kind;
  bool temporal = false;  // this node or a descendant is a temporal operator
  std::int64_t int_value = 0;
  util::Rational real_value;
  std::string ident;
  std::size_t pos = 0;  // source offset, for error messages
  std::vector<std::unique_ptr<PNode>> kids;
};

using PNodePtr = std::unique_ptr<PNode>;

PNodePtr make_node(PK kind, std::size_t pos, std::vector<PNodePtr> kids = {}) {
  auto n = std::make_unique<PNode>();
  n->kind = kind;
  n->pos = pos;
  n->temporal = is_temporal(kind);
  for (const PNodePtr& k : kids) n->temporal = n->temporal || k->temporal;
  n->kids = std::move(kids);
  return n;
}

PNodePtr make_unary(PK kind, std::size_t pos, PNodePtr kid) {
  std::vector<PNodePtr> kids;
  kids.push_back(std::move(kid));
  return make_node(kind, pos, std::move(kids));
}

PNodePtr make_binary(PK kind, std::size_t pos, PNodePtr a, PNodePtr b) {
  std::vector<PNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return make_node(kind, pos, std::move(kids));
}

// --- Tokenizer ----------------------------------------------------------------

enum class Tok : std::uint8_t {
  kEnd,
  kNumber,
  kIdent,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kNot,
  kAnd,
  kOr,
  kImplies,
  kIff,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kComma,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  std::size_t pos = 0;
  bool is_real = false;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }
  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    current_ = Token{};
    current_.pos = pos_;
    if (pos_ >= text_.size()) {
      current_.kind = Tok::kEnd;
      return;
    }
    const char c = text_[pos_];
    const auto two = [&](char second) {
      return pos_ + 1 < text_.size() && text_[pos_ + 1] == second;
    };
    switch (c) {
      case '(': current_.kind = Tok::kLParen; ++pos_; return;
      case ',': current_.kind = Tok::kComma; ++pos_; return;
      case ')': current_.kind = Tok::kRParen; ++pos_; return;
      case '[': current_.kind = Tok::kLBracket; ++pos_; return;
      case ']': current_.kind = Tok::kRBracket; ++pos_; return;
      case '+': current_.kind = Tok::kPlus; ++pos_; return;
      case '*': current_.kind = Tok::kStar; ++pos_; return;
      case '/': current_.kind = Tok::kSlash; ++pos_; return;
      case '&': current_.kind = Tok::kAnd; pos_ += two('&') ? 2 : 1; return;
      case '|': current_.kind = Tok::kOr; pos_ += two('|') ? 2 : 1; return;
      case '=': current_.kind = Tok::kEq; pos_ += two('=') ? 2 : 1; return;
      case '!':
        if (two('=')) {
          current_.kind = Tok::kNe;
          pos_ += 2;
        } else {
          current_.kind = Tok::kNot;
          ++pos_;
        }
        return;
      case '<':
        if (two('=')) {
          current_.kind = Tok::kLe;
          pos_ += 2;
        } else if (two('-') && pos_ + 2 < text_.size() && text_[pos_ + 2] == '>') {
          current_.kind = Tok::kIff;
          pos_ += 3;
        } else {
          current_.kind = Tok::kLt;
          ++pos_;
        }
        return;
      case '>':
        if (two('=')) {
          current_.kind = Tok::kGe;
          pos_ += 2;
        } else {
          current_.kind = Tok::kGt;
          ++pos_;
        }
        return;
      case '-':
        if (two('>')) {
          current_.kind = Tok::kImplies;
          pos_ += 2;
        } else {
          current_.kind = Tok::kMinus;
          ++pos_;
        }
        return;
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t end = pos_;
      bool real = false;
      while (end < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[end])) ||
              (text_[end] == '.' && !real))) {
        if (text_[end] == '.') real = true;
        ++end;
      }
      current_.kind = Tok::kNumber;
      current_.text = std::string(text_.substr(pos_, end - pos_));
      current_.is_real = real;
      pos_ = end;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = pos_;
      while (end < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '_' ||
              text_[end] == '.' || text_[end] == ':')) {
        ++end;
      }
      current_.kind = Tok::kIdent;
      current_.text = std::string(text_.substr(pos_, end - pos_));
      pos_ = end;
      return;
    }
    throw ParseError(std::string("unexpected character '") + c + "'", pos_);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

// --- Parser -------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  // Parse-tree depth bound. Every nesting level (a parenthesis, call or path
  // quantifier bracket, a unary or right-associative operator) and every
  // link of a left-associative chain (`a & b & ...`) counts one, so neither
  // this recursive descent nor the recursive lowering of the tree it builds
  // can overflow the stack on hostile input. A constant, like obs/json.cpp's
  // nesting bound.
  static constexpr int kMaxDepth = 512;

  PNodePtr parse_all() {
    PNodePtr node = parse_iff();
    const Token& t = lexer_.peek();
    if (t.kind != Tok::kEnd) throw ParseError("trailing input after formula", t.pos);
    return node;
  }

 private:
  // Counts levels against kMaxDepth for one parse call; gives them back on
  // return.
  class Depth {
   public:
    explicit Depth(Parser& parser) : parser_(parser) {}
    Depth(const Depth&) = delete;
    Depth& operator=(const Depth&) = delete;
    ~Depth() { parser_.depth_ -= taken_; }
    void add() {
      ++taken_;
      if (++parser_.depth_ > kMaxDepth)
        throw ParseError("formula nests deeper than " + std::to_string(kMaxDepth) +
                             " levels",
                         parser_.lexer_.peek().pos);
    }

   private:
    Parser& parser_;
    int taken_ = 0;
  };

  // Reached through parse_unary (a parenthesis, call or bracket), whose
  // level counts for it.
  PNodePtr parse_iff() {
    Depth depth(*this);
    PNodePtr lhs = parse_impl();
    while (lexer_.peek().kind == Tok::kIff) {
      depth.add();
      const std::size_t pos = lexer_.take().pos;
      lhs = make_binary(PK::kIff, pos, std::move(lhs), parse_impl());
    }
    return lhs;
  }

  PNodePtr parse_impl() {
    PNodePtr lhs = parse_or();
    if (lexer_.peek().kind == Tok::kImplies) {
      Depth depth(*this);
      depth.add();
      const std::size_t pos = lexer_.take().pos;
      return make_binary(PK::kImplies, pos, std::move(lhs), parse_impl());
    }
    return lhs;
  }

  PNodePtr parse_or() {
    Depth depth(*this);
    PNodePtr lhs = parse_and();
    while (lexer_.peek().kind == Tok::kOr) {
      depth.add();
      const std::size_t pos = lexer_.take().pos;
      lhs = make_binary(PK::kOr, pos, std::move(lhs), parse_and());
    }
    return lhs;
  }

  PNodePtr parse_and() {
    Depth depth(*this);
    PNodePtr lhs = parse_until();
    while (lexer_.peek().kind == Tok::kAnd) {
      depth.add();
      const std::size_t pos = lexer_.take().pos;
      lhs = make_binary(PK::kAnd, pos, std::move(lhs), parse_until());
    }
    return lhs;
  }

  PNodePtr parse_until() {
    PNodePtr lhs = parse_cmp();
    const Token& t = lexer_.peek();
    // Inside E[..]/A[..] the 'U' belongs to the path quantifier, not to the
    // linear-time binary operator.
    if (bracket_depth_ == 0 && t.kind == Tok::kIdent && (t.text == "U" || t.text == "R")) {
      const bool is_until = t.text == "U";
      Depth depth(*this);
      depth.add();
      const std::size_t pos = lexer_.take().pos;
      return make_binary(is_until ? PK::kU : PK::kR, pos, std::move(lhs), parse_until());
    }
    return lhs;
  }

  PNodePtr parse_cmp() {
    PNodePtr lhs = parse_add();
    const Tok k = lexer_.peek().kind;
    PK pk;
    switch (k) {
      case Tok::kEq: pk = PK::kEq; break;
      case Tok::kNe: pk = PK::kNe; break;
      case Tok::kLt: pk = PK::kLt; break;
      case Tok::kLe: pk = PK::kLe; break;
      case Tok::kGt: pk = PK::kGt; break;
      case Tok::kGe: pk = PK::kGe; break;
      default:
        return lhs;
    }
    const std::size_t pos = lexer_.take().pos;
    return make_binary(pk, pos, std::move(lhs), parse_add());
  }

  PNodePtr parse_add() {
    Depth depth(*this);
    PNodePtr lhs = parse_mul();
    while (true) {
      const Tok k = lexer_.peek().kind;
      if (k != Tok::kPlus && k != Tok::kMinus) return lhs;
      depth.add();
      const std::size_t pos = lexer_.take().pos;
      lhs = make_binary(k == Tok::kPlus ? PK::kAdd : PK::kSub, pos, std::move(lhs),
                        parse_mul());
    }
  }

  PNodePtr parse_mul() {
    Depth depth(*this);
    PNodePtr lhs = parse_unary();
    while (true) {
      const Tok k = lexer_.peek().kind;
      if (k != Tok::kStar && k != Tok::kSlash) return lhs;
      depth.add();
      const std::size_t pos = lexer_.take().pos;
      lhs = make_binary(k == Tok::kStar ? PK::kMul : PK::kDiv, pos, std::move(lhs),
                        parse_unary());
    }
  }

  PNodePtr parse_unary() {
    Depth depth(*this);
    depth.add();
    const Token& t = lexer_.peek();
    if (t.kind == Tok::kNot) {
      const std::size_t pos = lexer_.take().pos;
      return make_unary(PK::kNot, pos, parse_unary());
    }
    if (t.kind == Tok::kMinus) {
      const std::size_t pos = lexer_.take().pos;
      return make_unary(PK::kNeg, pos, parse_unary());
    }
    if (t.kind == Tok::kIdent) {
      static const std::pair<const char*, PK> kUnaryTemporal[] = {
          {"X", PK::kX},   {"F", PK::kF},   {"G", PK::kG},   {"EX", PK::kEX},
          {"EF", PK::kEF}, {"EG", PK::kEG}, {"AX", PK::kAX}, {"AF", PK::kAF},
          {"AG", PK::kAG},
      };
      for (const auto& [name, pk] : kUnaryTemporal) {
        if (t.text == name) {
          const std::size_t pos = lexer_.take().pos;
          return make_unary(pk, pos, parse_unary());
        }
      }
      if (t.text == "E" || t.text == "A") {
        const bool existential = t.text == "E";
        const std::size_t pos = lexer_.take().pos;
        expect(Tok::kLBracket, "expected '[' after path quantifier");
        ++bracket_depth_;
        PNodePtr a = parse_iff();
        const Token& u = lexer_.peek();
        if (u.kind != Tok::kIdent || u.text != "U")
          throw ParseError("expected 'U' inside E[..]/A[..]", u.pos);
        lexer_.take();
        PNodePtr b = parse_iff();
        --bracket_depth_;
        expect(Tok::kRBracket, "expected ']' to close path quantifier");
        return make_binary(existential ? PK::kEU : PK::kAU, pos, std::move(a), std::move(b));
      }
    }
    return parse_primary();
  }

  PNodePtr parse_primary() {
    const Token t = lexer_.take();
    switch (t.kind) {
      case Tok::kNumber: {
        PNodePtr n = make_node(t.is_real ? PK::kReal : PK::kInt, t.pos);
        try {
          if (t.is_real) {
            n->real_value = util::Rational::parse(t.text);
          } else {
            n->int_value = std::stoll(t.text);
          }
        } catch (const std::exception& e) {
          throw ParseError(std::string("bad number literal: ") + e.what(), t.pos);
        }
        return n;
      }
      case Tok::kIdent: {
        if ((t.text == "ite" || t.text == "min" || t.text == "max") &&
            lexer_.peek().kind == Tok::kLParen) {
          lexer_.take();  // '('
          std::vector<PNodePtr> args;
          args.push_back(parse_iff());
          while (lexer_.peek().kind == Tok::kComma) {
            lexer_.take();
            args.push_back(parse_iff());
          }
          expect(Tok::kRParen, "expected ')' to close call");
          const std::size_t expected = t.text == "ite" ? 3u : 2u;
          if (args.size() != expected)
            throw ParseError(t.text + " expects " + std::to_string(expected) +
                                 " arguments",
                             t.pos);
          return make_node(t.text == "ite"   ? PK::kIteCall
                           : t.text == "min" ? PK::kMinCall
                                             : PK::kMaxCall,
                           t.pos, std::move(args));
        }
        if (t.text == "true" || t.text == "TRUE") {
          PNodePtr n = make_node(PK::kBool, t.pos);
          n->int_value = 1;
          return n;
        }
        if (t.text == "false" || t.text == "FALSE") {
          PNodePtr n = make_node(PK::kBool, t.pos);
          n->int_value = 0;
          return n;
        }
        PNodePtr n = make_node(PK::kIdent, t.pos);
        n->ident = t.text;
        return n;
      }
      case Tok::kLParen: {
        PNodePtr inner = parse_iff();
        expect(Tok::kRParen, "expected ')'");
        return inner;
      }
      default:
        throw ParseError("expected expression", t.pos);
    }
  }

  void expect(Tok kind, const char* message) {
    const Token& t = lexer_.peek();
    if (t.kind != kind) throw ParseError(message, t.pos);
    lexer_.take();
  }

  Lexer lexer_;
  int bracket_depth_ = 0;
  int depth_ = 0;
};

// --- Lowering -----------------------------------------------------------------

expr::Expr lower_expr(const PNode& n, const Resolver& resolver) {
  const auto kid = [&](std::size_t i) { return lower_expr(*n.kids[i], resolver); };
  switch (n.kind) {
    case PK::kInt:
      return expr::int_const(n.int_value);
    case PK::kReal:
      return expr::real_const(n.real_value);
    case PK::kBool:
      return expr::bool_const(n.int_value != 0);
    case PK::kIdent:
      try {
        return resolver(n.ident);
      } catch (const std::exception& ex) {
        throw ParseError(std::string("cannot resolve identifier '") + n.ident +
                             "': " + ex.what(),
                         n.pos);
      }
    case PK::kNot:
      return expr::mk_not(kid(0));
    case PK::kAnd:
      return expr::mk_and({kid(0), kid(1)});
    case PK::kOr:
      return expr::mk_or({kid(0), kid(1)});
    case PK::kImplies:
      return expr::mk_implies(kid(0), kid(1));
    case PK::kIff:
      return expr::mk_iff(kid(0), kid(1));
    case PK::kEq:
      return expr::mk_eq(kid(0), kid(1));
    case PK::kNe:
      return expr::mk_not(expr::mk_eq(kid(0), kid(1)));
    case PK::kLt:
      return expr::mk_lt(kid(0), kid(1));
    case PK::kLe:
      return expr::mk_le(kid(0), kid(1));
    case PK::kGt:
      return expr::mk_lt(kid(1), kid(0));
    case PK::kGe:
      return expr::mk_le(kid(1), kid(0));
    case PK::kAdd:
      return expr::mk_add({kid(0), kid(1)});
    case PK::kSub:
      return kid(0) - kid(1);
    case PK::kMul:
      return expr::mk_mul({kid(0), kid(1)});
    case PK::kDiv:
      return expr::mk_div(kid(0), kid(1));
    case PK::kNeg:
      return -kid(0);
    case PK::kIteCall:
      return expr::ite(kid(0), kid(1), kid(2));
    case PK::kMinCall:
      return expr::mk_min(kid(0), kid(1));
    case PK::kMaxCall:
      return expr::mk_max(kid(0), kid(1));
    default:
      throw ParseError("temporal operator not allowed in plain expression", n.pos);
  }
}

Formula lower_ltl(const PNode& n, const Resolver& resolver) {
  if (!n.temporal) return atom(lower_expr(n, resolver));
  const auto kid = [&](std::size_t i) { return lower_ltl(*n.kids[i], resolver); };
  switch (n.kind) {
    case PK::kNot:
      return negation(kid(0));
    case PK::kAnd:
      return conj(kid(0), kid(1));
    case PK::kOr:
      return disj(kid(0), kid(1));
    case PK::kImplies:
      return implies(kid(0), kid(1));
    case PK::kIff: {
      Formula a = kid(0);
      Formula b = kid(1);
      return conj(implies(a, b), implies(b, a));
    }
    case PK::kX:
      return X(kid(0));
    case PK::kF:
      return F(kid(0));
    case PK::kG:
      return G(kid(0));
    case PK::kU:
      return U(kid(0), kid(1));
    case PK::kR:
      return R(kid(0), kid(1));
    default:
      throw ParseError(is_temporal(n.kind)
                           ? "CTL path quantifier not allowed in LTL formula"
                           : "arithmetic cannot contain temporal subformulas",
                       n.pos);
  }
}

CtlFormula lower_ctl(const PNode& n, const Resolver& resolver) {
  if (!n.temporal) return ctl_atom(lower_expr(n, resolver));
  const auto kid = [&](std::size_t i) { return lower_ctl(*n.kids[i], resolver); };
  switch (n.kind) {
    case PK::kNot:
      return ctl_not(kid(0));
    case PK::kAnd:
      return ctl_and(kid(0), kid(1));
    case PK::kOr:
      return ctl_or(kid(0), kid(1));
    case PK::kImplies:
      return ctl_implies(kid(0), kid(1));
    case PK::kIff: {
      CtlFormula a = kid(0);
      CtlFormula b = kid(1);
      return ctl_and(ctl_implies(a, b), ctl_implies(b, a));
    }
    case PK::kEX:
      return EX(kid(0));
    case PK::kEF:
      return EF(kid(0));
    case PK::kEG:
      return EG(kid(0));
    case PK::kEU:
      return EU(kid(0), kid(1));
    case PK::kAX:
      return AX(kid(0));
    case PK::kAF:
      return AF(kid(0));
    case PK::kAG:
      return AG(kid(0));
    case PK::kAU:
      return AU(kid(0), kid(1));
    default:
      throw ParseError(is_temporal(n.kind)
                           ? "LTL operator not allowed in CTL formula"
                           : "arithmetic cannot contain temporal subformulas",
                       n.pos);
  }
}

}  // namespace

Resolver default_resolver() {
  return [](std::string_view name) { return expr::var_by_name(name); };
}

expr::Expr parse_expr(std::string_view text, const Resolver& resolver) {
  Parser parser(text);
  return lower_expr(*parser.parse_all(), resolver);
}
expr::Expr parse_expr(std::string_view text) { return parse_expr(text, default_resolver()); }

Formula parse_ltl(std::string_view text, const Resolver& resolver) {
  Parser parser(text);
  return lower_ltl(*parser.parse_all(), resolver);
}
Formula parse_ltl(std::string_view text) { return parse_ltl(text, default_resolver()); }

CtlFormula parse_ctl(std::string_view text, const Resolver& resolver) {
  Parser parser(text);
  return lower_ctl(*parser.parse_all(), resolver);
}
CtlFormula parse_ctl(std::string_view text) { return parse_ctl(text, default_resolver()); }

}  // namespace verdict::ltl
