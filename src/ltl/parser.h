// Textual property and expression parser.
//
// Grammar (loosest to tightest binding):
//
//   iff    := impl ('<->' impl)*
//   impl   := or ('->' impl)?                 right-associative
//   or     := and ('|' and)*
//   and    := until ('&' until)*
//   until  := cmp (('U'|'R') until)?          right-associative (LTL only)
//   cmp    := add (('='|'!='|'<'|'<='|'>'|'>=') add)?
//   add    := mul (('+'|'-') mul)*
//   mul    := unary (('*'|'/') unary)*
//   unary  := '!'|'-'|'X'|'F'|'G'|'EX'|'EF'|'EG'|'AX'|'AF'|'AG' unary
//           | 'E' '[' iff 'U' iff ']' | 'A' '[' iff 'U' iff ']'
//           | primary
//   primary:= number | 'true' | 'false' | identifier | '(' iff ')'
//
// Identifiers resolve through a caller-supplied Resolver (by default the
// global expr variable registry), so the same parser serves standalone
// property strings and the vml modeling DSL. The temporal keywords
// X F G U R E A EX EF EG EU AX AF AG AU are reserved.
//
// The parse tree is at most 512 levels deep: every nesting level and every
// link of a left-associative chain counts one, and deeper text is a
// ParseError (so hostile input cannot overflow the stack).
#pragma once

#include <functional>
#include <stdexcept>
#include <string_view>

#include "ltl/ctl.h"
#include "ltl/ltl.h"

namespace verdict::ltl {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t position)
      : std::runtime_error(message + " (at offset " + std::to_string(position) + ")"),
        position_(position) {}
  [[nodiscard]] std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

/// Maps an identifier to an expression; throws to signal "unknown".
using Resolver = std::function<expr::Expr(std::string_view)>;

/// Resolver backed by the global expr variable registry.
[[nodiscard]] Resolver default_resolver();

/// Parses a plain (non-temporal) expression. Throws ParseError.
[[nodiscard]] expr::Expr parse_expr(std::string_view text);
[[nodiscard]] expr::Expr parse_expr(std::string_view text, const Resolver& resolver);

/// Parses an LTL formula, e.g. "G (converged -> available >= m)".
[[nodiscard]] Formula parse_ltl(std::string_view text);
[[nodiscard]] Formula parse_ltl(std::string_view text, const Resolver& resolver);

/// Parses a CTL formula, e.g. "AG (available >= 1)".
[[nodiscard]] CtlFormula parse_ctl(std::string_view text);
[[nodiscard]] CtlFormula parse_ctl(std::string_view text, const Resolver& resolver);

}  // namespace verdict::ltl
