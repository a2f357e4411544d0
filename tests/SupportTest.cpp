//===- tests/SupportTest.cpp - Support utility tests -----------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "support/IndexSet.h"
#include "support/Stopwatch.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <limits>

using namespace lalrcex;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

TEST(IndexSetTest, BasicOperations) {
  IndexSet S(100);
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
  S.insert(0);
  S.insert(63);
  S.insert(64);
  S.insert(99);
  EXPECT_FALSE(S.empty());
  EXPECT_EQ(S.count(), 4u);
  EXPECT_TRUE(S.contains(0));
  EXPECT_TRUE(S.contains(63));
  EXPECT_TRUE(S.contains(64));
  EXPECT_TRUE(S.contains(99));
  EXPECT_FALSE(S.contains(1));
  S.erase(63);
  EXPECT_FALSE(S.contains(63));
  EXPECT_EQ(S.count(), 3u);
  S.clear();
  EXPECT_TRUE(S.empty());
}

TEST(IndexSetTest, SetAlgebra) {
  IndexSet A(70), B(70);
  A.insert(1);
  A.insert(65);
  B.insert(2);
  B.insert(65);

  EXPECT_TRUE(A.intersects(B)); // both contain 65
  IndexSet C = A;
  EXPECT_TRUE(C.unionWith(B));  // changed
  EXPECT_FALSE(C.unionWith(B)); // idempotent
  EXPECT_EQ(C.count(), 3u);
  EXPECT_TRUE(A.isSubsetOf(C));
  EXPECT_TRUE(B.isSubsetOf(C));
  EXPECT_FALSE(C.isSubsetOf(A));

  C.intersectWith(A);
  EXPECT_EQ(C, A);

  IndexSet D(70), E(70);
  D.insert(3);
  E.insert(4);
  EXPECT_FALSE(D.intersects(E));
}

TEST(IndexSetTest, SingletonAndIteration) {
  IndexSet S = IndexSet::singleton(200, 130);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_EQ(S.firstElement(), 130u);
  S.insert(5);
  S.insert(199);
  std::vector<unsigned> Got = S.elements();
  EXPECT_EQ(Got, (std::vector<unsigned>{5, 130, 199}));

  unsigned Sum = 0;
  S.forEach([&Sum](unsigned E) { Sum += E; });
  EXPECT_EQ(Sum, 5u + 130u + 199u);

  IndexSet Empty(64);
  EXPECT_EQ(Empty.firstElement(), 64u); // universe size when empty
}

TEST(IndexSetTest, EqualityAndHash) {
  IndexSet A(50), B(50);
  A.insert(7);
  B.insert(7);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  B.insert(8);
  EXPECT_NE(A, B);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch W;
  double T1 = W.seconds();
  EXPECT_GE(T1, 0.0);
  volatile unsigned Sink = 0;
  for (unsigned I = 0; I != 100000; ++I)
    Sink = Sink + I;
  double T2 = W.seconds();
  EXPECT_GE(T2, T1);
  W.restart();
  EXPECT_LE(W.seconds(), T2 + 1.0);
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline D = Deadline::unlimited();
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingSeconds(), 1e9);
  Deadline Default;
  EXPECT_FALSE(Default.expired());
  // Budgets beyond the clock's range never expire.
  for (double Seconds : {1e12, 1e300, Inf}) {
    Deadline Huge = Deadline::afterSeconds(Seconds);
    EXPECT_FALSE(Huge.expired()) << Seconds;
    EXPECT_GT(Huge.remainingSeconds(), 1e9) << Seconds;
  }
}

TEST(DeadlineTest, ExpiredAfterBudget) {
  for (double Seconds : {-1.0, 0.0, -1e300, -Inf, NaN})
    EXPECT_TRUE(Deadline::afterSeconds(Seconds).expired()) << Seconds;
  Deadline Soon = Deadline::afterSeconds(3600.0);
  EXPECT_FALSE(Soon.expired());
  EXPECT_LE(Soon.remainingSeconds(), 3600.0);
}

TEST(StrUtilTest, JoinAndPad) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(padLeft("x", 3), "  x");
  EXPECT_EQ(padLeft("xyz", 2), "xyz");
  EXPECT_EQ(padRight("x", 3), "x  ");
  EXPECT_EQ(formatSeconds(0.0716), "0.072"); // three decimals, rounded
  EXPECT_EQ(formatSeconds(2.0), "2.000");
}

TEST(StrUtilTest, ParseUnsigned) {
  // The strict CLI/number parser: everything std::atoi silently mangles
  // must come back as nullopt instead.
  EXPECT_EQ(parseUnsigned("0"), std::optional<uint64_t>(0));
  EXPECT_EQ(parseUnsigned("42"), std::optional<uint64_t>(42));
  EXPECT_EQ(parseUnsigned("007"), std::optional<uint64_t>(7));
  EXPECT_EQ(parseUnsigned("18446744073709551615"),
            std::optional<uint64_t>(UINT64_MAX));

  EXPECT_FALSE(parseUnsigned(""));
  EXPECT_FALSE(parseUnsigned("banana"));
  EXPECT_FALSE(parseUnsigned("12x"));
  EXPECT_FALSE(parseUnsigned("x12"));
  EXPECT_FALSE(parseUnsigned("-3"));
  EXPECT_FALSE(parseUnsigned("+3"));
  EXPECT_FALSE(parseUnsigned(" 3"));
  EXPECT_FALSE(parseUnsigned("3 "));
  EXPECT_FALSE(parseUnsigned("3.5"));
  EXPECT_FALSE(parseUnsigned("18446744073709551616")); // UINT64_MAX + 1
  EXPECT_FALSE(parseUnsigned("99999999999999999999999"));

  // The Max cap rejects values the caller's field cannot hold.
  EXPECT_EQ(parseUnsigned("100", 100), std::optional<uint64_t>(100));
  EXPECT_FALSE(parseUnsigned("101", 100));
}

TEST(StrUtilTest, ParseFiniteDoubleIsStrict) {
  EXPECT_EQ(parseFiniteDouble("5"), std::optional<double>(5.0));
  EXPECT_EQ(parseFiniteDouble("-1"), std::optional<double>(-1.0));
  EXPECT_EQ(parseFiniteDouble("0.25"), std::optional<double>(0.25));
  EXPECT_EQ(parseFiniteDouble("1e300"), std::optional<double>(1e300));

  for (const char *Bad : {"", "banana", "5s", " 5", "5 ", "inf", "-inf",
                          "nan", "1e400", "1e-400"})
    EXPECT_FALSE(parseFiniteDouble(Bad)) << "'" << Bad << "'";
}

} // namespace
