//===- tests/SupportTest.cpp - Support utility tests -----------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "support/IndexSet.h"
#include "support/Stopwatch.h"
#include "support/StrUtil.h"
#include "support/TerminalSetPool.h"

#include <gtest/gtest.h>

using namespace lalrcex;

namespace {

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
}

TEST(DeadlineTest, ExpiredAfterBudget) {
  Deadline D = Deadline::afterSeconds(-1.0);
  EXPECT_TRUE(D.expired());
  Deadline Soon = Deadline::afterSeconds(3600.0);
  EXPECT_FALSE(Soon.expired());
  EXPECT_LE(Soon.remainingSeconds(), 3600.0);
}

TEST(TerminalSetPoolTest, HashConsingIdentity) {
  TerminalSetPool P(40);
  IndexSet A(40), B(40);
  A.insert(3);
  A.insert(17);
  B.insert(17);
  B.insert(3);
  EXPECT_EQ(P.intern(A), P.intern(B)); // one canonical id per set
  EXPECT_EQ(P.singleton(3), P.singleton(3));
  EXPECT_EQ(P.intern(IndexSet::singleton(40, 3)), P.singleton(3));
  EXPECT_EQ(P.intern(IndexSet(40)), P.emptySet());
  EXPECT_TRUE(P.empty(P.emptySet()));
  // Sets of <= 2 elements are inline: no arena storage at all so far.
  EXPECT_EQ(P.stats().WideSets, 0u);

  IndexSet W(40);
  W.insert(1);
  W.insert(2);
  W.insert(3);
  TerminalSetPool::SetId WId = P.intern(W);
  EXPECT_EQ(P.intern(W), WId); // wide sets hash-cons too
  EXPECT_EQ(P.stats().WideSets, 1u);
  EXPECT_EQ(P.materialize(WId), W);
}

TEST(TerminalSetPoolTest, CachedOpsMatchNaiveIndexSet) {
  // Random interleaved unions / with-element / membership probes, checked
  // element-for-element against plain IndexSet algebra. Universe > 64 so
  // multi-word paths run; enough rounds that both caches get hits.
  lalrcex::testing::Rng R(42);
  const unsigned U = 130;
  TerminalSetPool P(U);
  std::vector<TerminalSetPool::SetId> Ids;
  std::vector<IndexSet> Naive;
  for (int I = 0; I != 30; ++I) {
    IndexSet S(U);
    for (unsigned J = 0, N = R.next(8); J != N; ++J)
      S.insert(R.next(U));
    Ids.push_back(P.intern(S));
    Naive.push_back(S);
  }
  for (int Round = 0; Round != 300; ++Round) {
    unsigned A = R.next(unsigned(Ids.size()));
    unsigned B = R.next(unsigned(Ids.size()));
    TerminalSetPool::SetId UId = P.unionSets(Ids[A], Ids[B]);
    ASSERT_EQ(UId, P.unionSets(Ids[B], Ids[A])); // commutative via cache
    IndexSet Expect = Naive[A];
    Expect.unionWith(Naive[B]);
    ASSERT_EQ(P.materialize(UId), Expect);
    ASSERT_EQ(P.count(UId), Expect.count());

    unsigned E = R.next(U);
    TerminalSetPool::SetId WId = P.withElement(Ids[A], E);
    IndexSet ExpectW = Naive[A];
    ExpectW.insert(E);
    ASSERT_EQ(P.materialize(WId), ExpectW);

    ASSERT_EQ(P.contains(Ids[A], E), Naive[A].contains(E));

    // forEach visits in increasing order, matching IndexSet.
    std::vector<unsigned> Got;
    P.forEach(UId, [&](unsigned El) { Got.push_back(El); });
    ASSERT_EQ(Got, Expect.elements());

    if (Ids.size() < 200) {
      Ids.push_back(UId);
      Naive.push_back(Expect);
    }
  }
  EXPECT_GT(P.stats().UnionCacheHits, 0u);
  EXPECT_GT(P.stats().WithElementCacheHits, 0u);
}

TEST(TerminalSetPoolTest, SmallWidePromotion) {
  TerminalSetPool P(100);
  TerminalSetPool::SetId A = P.singleton(1);
  TerminalSetPool::SetId AB = P.withElement(A, 2);
  EXPECT_EQ(P.stats().WideSets, 0u); // two elements still inline
  TerminalSetPool::SetId ABC = P.withElement(AB, 3);
  EXPECT_EQ(P.stats().WideSets, 1u); // third element promotes to wide
  EXPECT_EQ(P.count(ABC), 3u);

  // A union whose result fits two elements stays inline, in either
  // argument order.
  TerminalSetPool::SetId CD =
      P.unionSets(P.singleton(4), P.singleton(5));
  EXPECT_EQ(P.unionSets(P.singleton(5), P.singleton(4)), CD);
  EXPECT_EQ(P.stats().WideSets, 1u);
  EXPECT_EQ(P.count(CD), 2u);

  // Interning a small IndexSet after wide sets exist still demotes to the
  // same inline id the withElement chain produced.
  IndexSet S(100);
  S.insert(1);
  S.insert(2);
  EXPECT_EQ(P.intern(S), AB);
}

TEST(TerminalSetPoolTest, UniverseEdgeCases) {
  // Universe 0: only the empty set exists, and ops on it are closed.
  TerminalSetPool P0(0);
  EXPECT_TRUE(P0.empty(P0.emptySet()));
  EXPECT_EQ(P0.count(P0.emptySet()), 0u);
  EXPECT_EQ(P0.intern(IndexSet(0)), P0.emptySet());
  EXPECT_EQ(P0.unionSets(P0.emptySet(), P0.emptySet()), P0.emptySet());
  EXPECT_TRUE(P0.materialize(P0.emptySet()).empty());

  // Exact word-multiple universes: boundary elements 0/63/64/127.
  for (unsigned U : {64u, 128u}) {
    TerminalSetPool P(U);
    IndexSet S(U);
    S.insert(0);
    S.insert(63);
    if (U > 64) {
      S.insert(64);
      S.insert(127);
    }
    TerminalSetPool::SetId Id = P.intern(S);
    EXPECT_EQ(P.materialize(Id), S);
    EXPECT_TRUE(P.contains(Id, 63));
    EXPECT_EQ(P.count(Id), S.count());
    EXPECT_EQ(P.withElement(Id, U - 1), Id); // already present
  }

  // A universe too wide for the 15-bit inline slots: every set is wide
  // (including empty) and the same algebra still holds.
  TerminalSetPool PW(40000);
  EXPECT_EQ(PW.stats().WideSets, 1u); // the wide empty set
  TerminalSetPool::SetId A = PW.singleton(39999);
  TerminalSetPool::SetId B = PW.withElement(A, 0);
  EXPECT_EQ(PW.count(B), 2u);
  EXPECT_TRUE(PW.contains(B, 39999));
  EXPECT_EQ(PW.unionSets(A, PW.emptySet()), A);
  EXPECT_EQ(PW.unionSets(B, A), B); // absorption
}

TEST(TerminalSetPoolTest, OverlayReusesBaseAndIsolatesSiblings) {
  TerminalSetPool Base(100);
  IndexSet W(100);
  W.insert(1);
  W.insert(2);
  W.insert(3);
  TerminalSetPool::SetId BaseId = Base.intern(W);
  Base.freeze();

  TerminalSetPool O1 = TerminalSetPool::overlay(Base);
  TerminalSetPool O2 = TerminalSetPool::overlay(Base);

  // Re-interning a base set from an overlay finds the base id; nothing is
  // allocated in the overlay layer.
  EXPECT_EQ(O1.intern(W), BaseId);
  EXPECT_EQ(O1.stats().WideSets, 0u);

  // New sets intern locally, and unions mix base and overlay ids freely.
  IndexSet X(100);
  X.insert(7);
  X.insert(8);
  X.insert(9);
  TerminalSetPool::SetId XId = O1.intern(X);
  EXPECT_EQ(O1.stats().WideSets, 1u);
  TerminalSetPool::SetId UId = O1.unionSets(BaseId, XId);
  IndexSet Expect = W;
  Expect.unionWith(X);
  EXPECT_EQ(O1.materialize(UId), Expect);

  // Sibling overlays are independent but number deterministically: the
  // same first local set gets the same id value in both.
  TerminalSetPool::SetId XId2 = O2.intern(X);
  EXPECT_EQ(O2.materialize(XId2), X);
  EXPECT_EQ(XId, XId2);
}

TEST(SetKernelTest, Avx2MatchesScalarOnRandomizedSets) {
  // The runtime-dispatched AVX2 union kernel must agree with the portable
  // scalar kernel on every input; on machines without AVX2 the wrapper
  // falls back to scalar and the test degenerates to self-consistency.
  // Word counts sweep the vector-width boundaries (1..9 covers partial
  // and full 4-word blocks plus the 8-word double block).
  lalrcex::testing::Rng R(7);
  auto randWord = [&R] {
    uint64_t W = 0;
    for (int B = 0; B != 4; ++B)
      W = (W << 16) | R.next(1u << 16);
    return W;
  };
  for (unsigned Words = 1; Words <= 9; ++Words) {
    for (int Round = 0; Round != 200; ++Round) {
      std::vector<uint64_t> Src(Words), DstSimd(Words), DstScalar(Words);
      for (unsigned I = 0; I != Words; ++I) {
        Src[I] = randWord();
        DstSimd[I] = DstScalar[I] = randWord();
      }
      setkernel::orIntoAvx2(DstSimd.data(), Src.data(), Words);
      setkernel::orIntoScalar(DstScalar.data(), Src.data(), Words);
      EXPECT_EQ(DstSimd, DstScalar) << "words=" << Words;
    }
  }
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

} // namespace
