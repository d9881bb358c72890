// Property/expression parser tests: grammar coverage, precedence, errors.
#include <gtest/gtest.h>

#include "ltl/parser.h"

namespace verdict::ltl {
namespace {

using expr::Expr;

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    expr::int_var("pt_x", 0, 10);
    expr::int_var("pt_y", 0, 10);
    expr::bool_var("pt_b");
    expr::real_var("pt_r");
  }
};

TEST_F(ParserTest, ArithmeticPrecedence) {
  const Expr e = parse_expr("pt_x + 2 * pt_y");
  const Expr expected =
      expr::var_by_name("pt_x") + expr::int_const(2) * expr::var_by_name("pt_y");
  EXPECT_TRUE(e.is(expected));
}

TEST_F(ParserTest, ComparisonOperators) {
  const Expr x = expr::var_by_name("pt_x");
  const Expr y = expr::var_by_name("pt_y");
  EXPECT_TRUE(parse_expr("pt_x < pt_y").is(expr::mk_lt(x, y)));
  EXPECT_TRUE(parse_expr("pt_x <= pt_y").is(expr::mk_le(x, y)));
  EXPECT_TRUE(parse_expr("pt_x > pt_y").is(expr::mk_lt(y, x)));
  EXPECT_TRUE(parse_expr("pt_x >= pt_y").is(expr::mk_le(y, x)));
  EXPECT_TRUE(parse_expr("pt_x = pt_y").is(expr::mk_eq(x, y)));
  EXPECT_TRUE(parse_expr("pt_x != pt_y").is(expr::mk_not(expr::mk_eq(x, y))));
}

TEST_F(ParserTest, BooleanPrecedenceAndAssociativity) {
  // -> is right-associative and binds looser than | and &.
  const Expr b = expr::var_by_name("pt_b");
  const Expr x = expr::var_by_name("pt_x");
  const Expr parsed = parse_expr("pt_b & pt_x < 3 -> pt_b | pt_x = 0");
  const Expr expected = expr::mk_implies(
      expr::mk_and({b, expr::mk_lt(x, expr::int_const(3))}),
      expr::mk_or({b, expr::mk_eq(x, expr::int_const(0))}));
  EXPECT_TRUE(parsed.is(expected));
}

TEST_F(ParserTest, RealLiterals) {
  const Expr e = parse_expr("pt_r < 1.25");
  EXPECT_TRUE(e.is(expr::mk_lt(expr::var_by_name("pt_r"),
                               expr::real_const(util::Rational(5, 4)))));
}

TEST_F(ParserTest, DoubleStyleOperatorsAccepted) {
  EXPECT_TRUE(parse_expr("pt_b && true").is(expr::var_by_name("pt_b")));
  EXPECT_TRUE(parse_expr("pt_b || false").is(expr::var_by_name("pt_b")));
  EXPECT_TRUE(parse_expr("pt_x == 3").is(
      expr::mk_eq(expr::var_by_name("pt_x"), expr::int_const(3))));
}

TEST_F(ParserTest, LtlOperators) {
  const Formula f = parse_ltl("G (pt_x < 5 -> F (pt_x = 0))");
  EXPECT_EQ(f.op(), Op::kGlobally);
  const Formula g = parse_ltl("pt_b U pt_x = 3");
  EXPECT_EQ(g.op(), Op::kUntil);
  const Formula r = parse_ltl("pt_b R X pt_b");
  EXPECT_EQ(r.op(), Op::kRelease);
  EXPECT_EQ(r.kids()[1].op(), Op::kNext);
}

TEST_F(ParserTest, UntilIsRightAssociative) {
  const Formula f = parse_ltl("pt_b U pt_b U pt_x = 0");
  ASSERT_EQ(f.op(), Op::kUntil);
  EXPECT_EQ(f.kids()[1].op(), Op::kUntil);
}

TEST_F(ParserTest, LtlInvariantRecognition) {
  EXPECT_TRUE(is_invariant_property(parse_ltl("G (pt_x <= 9)")));
  EXPECT_FALSE(is_invariant_property(parse_ltl("F (pt_x <= 9)")));
  EXPECT_FALSE(is_invariant_property(parse_ltl("G (F (pt_b))")));
}

TEST_F(ParserTest, CtlOperators) {
  EXPECT_EQ(parse_ctl("AG (pt_x <= 9)").op(), CtlOp::kAG);
  EXPECT_EQ(parse_ctl("EF (pt_b)").op(), CtlOp::kEF);
  EXPECT_EQ(parse_ctl("E[pt_b U pt_x = 0]").op(), CtlOp::kEU);
  EXPECT_EQ(parse_ctl("A[pt_b U pt_x = 0]").op(), CtlOp::kAU);
  EXPECT_EQ(parse_ctl("AG (EF (pt_x = 0))").op(), CtlOp::kAG);
}

TEST_F(ParserTest, ModeMismatchErrors) {
  EXPECT_THROW((void)parse_expr("G (pt_b)"), ParseError);     // temporal in expr
  EXPECT_THROW((void)parse_ltl("EF (pt_b)"), ParseError);     // CTL in LTL
  EXPECT_THROW((void)parse_ctl("pt_b U pt_b"), ParseError);   // bare LTL U in CTL
  EXPECT_THROW((void)parse_expr("pt_x + pt_b"), std::exception);  // type error
}

TEST_F(ParserTest, SyntaxErrorsCarryOffsets) {
  try {
    (void)parse_expr("pt_x + ");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.position(), 7u);
  }
  EXPECT_THROW((void)parse_expr("(pt_x"), ParseError);
  EXPECT_THROW((void)parse_expr("pt_x pt_y"), ParseError);
  EXPECT_THROW((void)parse_expr("unknown_identifier_xyz"), ParseError);
  EXPECT_THROW((void)parse_ctl("E[pt_b R pt_b]"), ParseError);  // only U in brackets
}

// Hostile depth ends in a ParseError, not a stack overflow: deep nesting
// (parentheses, unary operators) and long left-associative chains both
// count against the parse-tree depth bound. Depths well inside the bound
// still parse.
TEST_F(ParserTest, DepthBoundRejectsDeepNestingAndLongChains) {
  const auto nested = [](int depth) {
    return "G " + std::string(depth, '(') + "pt_x < 3" + std::string(depth, ')');
  };
  const auto chain = [](int terms) {
    std::string text = "G (pt_x < 3";
    for (int i = 1; i < terms; ++i) text += " & pt_b";
    return text + ")";
  };
  const auto negations = [](int depth) { return "G " + std::string(depth, '!') + "pt_b"; };
  for (const std::string& text : {nested(200000), chain(200000), negations(200000)}) {
    try {
      (void)parse_ltl(text);
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nests deeper"), std::string::npos) << e.what();
      EXPECT_LT(e.position(), text.size());
    }
  }
  EXPECT_NO_THROW((void)parse_ltl(nested(400)));
  EXPECT_NO_THROW((void)parse_ltl(chain(400)));
  EXPECT_NO_THROW((void)parse_ltl(negations(400)));
  EXPECT_NO_THROW((void)parse_expr(std::string(400, '(') + "pt_x" + std::string(400, ')')));
}

TEST_F(ParserTest, FunctionCallSyntax) {
  const Expr x = expr::var_by_name("pt_x");
  const Expr y = expr::var_by_name("pt_y");
  EXPECT_TRUE(parse_expr("ite(pt_b, pt_x, pt_y)")
                  .is(expr::ite(expr::var_by_name("pt_b"), x, y)));
  EXPECT_TRUE(parse_expr("min(pt_x, pt_y)").is(expr::mk_min(x, y)));
  EXPECT_TRUE(parse_expr("max(pt_x, 3)").is(expr::mk_max(x, expr::int_const(3))));
  EXPECT_TRUE(parse_expr("ite(pt_x < pt_y, 1, 0) + 1")
                  .is(expr::bool_to_int(expr::mk_lt(x, y)) + 1));
  EXPECT_THROW((void)parse_expr("ite(pt_b, pt_x)"), ParseError);  // arity
  EXPECT_THROW((void)parse_expr("min(pt_x)"), ParseError);
}

TEST_F(ParserTest, CustomResolver) {
  const Expr forty_two = expr::int_const(42);
  const Resolver resolver = [&](std::string_view name) -> Expr {
    if (name == "answer") return forty_two;
    throw std::invalid_argument("unknown");
  };
  EXPECT_TRUE(parse_expr("answer + 1", resolver).is(expr::int_const(43)));
}

}  // namespace
}  // namespace verdict::ltl
