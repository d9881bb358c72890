// util: rational arithmetic, deadlines, cancellation tokens, string helpers.
#include <gtest/gtest.h>

#include "util/rational.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace verdict::util {
namespace {

TEST(Rational, NormalizationInvariant) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 4), Rational(-1, 2));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));  // sign moves to numerator
  EXPECT_EQ(Rational(0, 7), Rational(0));
  EXPECT_EQ(Rational(0, 7).den(), 1);
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, ArithmeticIsExact) {
  const Rational third(1, 3);
  EXPECT_EQ(third + third + third, Rational(1));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
}

TEST(Rational, ComparisonViaCrossMultiplication) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  // Values near the 64-bit edge still compare correctly (128-bit cross mul).
  const Rational big1(std::int64_t{1} << 40, 3);
  const Rational big2((std::int64_t{1} << 40) + 1, 3);
  EXPECT_LT(big1, big2);
}

TEST(Rational, Parsing) {
  EXPECT_EQ(Rational::parse("5"), Rational(5));
  EXPECT_EQ(Rational::parse("-5"), Rational(-5));
  EXPECT_EQ(Rational::parse("3/4"), Rational(3, 4));
  EXPECT_EQ(Rational::parse("1.25"), Rational(5, 4));
  EXPECT_EQ(Rational::parse("-0.5"), Rational(-1, 2));
  EXPECT_THROW(Rational::parse(""), std::invalid_argument);
}

TEST(Rational, Rendering) {
  EXPECT_EQ(Rational(7).str(), "7");
  EXPECT_EQ(Rational(1, 2).str(), "1/2");
  EXPECT_EQ(Rational(-3, 4).str(), "-3/4");
  EXPECT_TRUE(Rational(4, 2).is_integer());
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
}

TEST(Deadline, NeverExpiresByDefault) {
  const Deadline d;
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.is_finite());
  EXPECT_GT(d.remaining_seconds(), 1e12);
}

TEST(Deadline, ExpiresAfterBudget) {
  const Deadline d = Deadline::after_seconds(0.0);
  EXPECT_TRUE(d.is_finite());
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_seconds(), 0.0);
  const Deadline later = Deadline::after_seconds(3600.0);
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_seconds(), 3500.0);
}

TEST(CancelToken, CopiesShareOneFlag) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_FALSE(b.cancelled());
  a.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  a.reset();
  EXPECT_FALSE(b.cancelled());
}

TEST(CancelToken, DeadlineIntegration) {
  CancelToken token;
  const Deadline plain = Deadline::after_seconds(3600);
  const Deadline with = plain.with_cancel(token);
  EXPECT_FALSE(with.expired_or_cancelled());
  EXPECT_TRUE(with.has_cancel_token());
  EXPECT_FALSE(plain.has_cancel_token());
  token.request_cancel();
  EXPECT_TRUE(with.cancelled());
  EXPECT_TRUE(with.expired_or_cancelled());
  EXPECT_FALSE(with.expired()) << "cancellation must not masquerade as time expiry";
  EXPECT_EQ(with.remaining_seconds(), 0.0);
  EXPECT_FALSE(plain.expired_or_cancelled()) << "the original deadline is unaffected";

  // An infinite deadline is still cancellable.
  const Deadline infinite = Deadline::never().with_cancel(token);
  EXPECT_TRUE(infinite.expired_or_cancelled());
  EXPECT_FALSE(infinite.is_finite());
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
  watch.reset();
  EXPECT_LT(watch.elapsed_seconds(), 1.0);
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, TrimAndJoin) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

}  // namespace
}  // namespace verdict::util
