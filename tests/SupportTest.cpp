//===- tests/SupportTest.cpp - Support utility tests -----------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "support/IdIndex.h"
#include "support/IndexSet.h"
#include "support/Stopwatch.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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

static_assert(std::is_nothrow_move_constructible_v<IndexSet>,
              "std::vector<IndexSet> must move its elements when it grows");
static_assert(std::is_nothrow_move_assignable_v<IndexSet>);

/// Universes on both sides of the inline/heap boundary (4 words = 256).
const unsigned Universes[] = {0, 1, 64, 256, 257, 1000};

/// A set over \p U holding every third element from \p Phase, and the
/// last element.
IndexSet patterned(unsigned U, unsigned Phase) {
  IndexSet S(U);
  for (unsigned E = Phase; E < U; E += 3)
    S.insert(E);
  if (U != 0)
    S.insert(U - 1);
  return S;
}

TEST(IndexSetTest, ConstructionFromWordsRoundTrips) {
  for (unsigned U : Universes) {
    IndexSet S = patterned(U, 1);
    const unsigned NumWords = (U + 63) / 64;
    std::vector<uint64_t> Words(S.words(), S.words() + NumWords);
    IndexSet T(U, Words.data());
    EXPECT_EQ(T.universeSize(), U);
    EXPECT_EQ(T, S) << "universe " << U;
    EXPECT_EQ(T.elements(), S.elements()) << "universe " << U;
    EXPECT_TRUE(std::equal(Words.begin(), Words.end(), T.words()))
        << "universe " << U;
    EXPECT_EQ(T.hash(), S.hash()) << "universe " << U;
  }
}

TEST(IndexSetTest, CopyAndMoveAcrossStorageSizes) {
  for (unsigned From : Universes) {
    for (unsigned To : Universes) {
      const std::string Ctx =
          std::to_string(From) + " into " + std::to_string(To);
      const IndexSet Src = patterned(From, 1);
      const std::vector<unsigned> Want = Src.elements();

      IndexSet Copy(Src);
      EXPECT_EQ(Copy, Src) << Ctx;
      IndexSet Assigned = patterned(To, 2);
      Assigned = Src;
      EXPECT_EQ(Assigned.universeSize(), From) << Ctx;
      EXPECT_EQ(Assigned.elements(), Want) << Ctx;
      if (From != 0) {
        // A copy owns its words.
        Assigned.erase(From - 1);
        Copy.clear();
        EXPECT_TRUE(Src.contains(From - 1)) << Ctx;
        EXPECT_EQ(Src.elements(), Want) << Ctx;
      }

      IndexSet Donor(Src);
      IndexSet MoveConstructed(std::move(Donor));
      EXPECT_EQ(MoveConstructed, Src) << Ctx;
      EXPECT_EQ(Donor.universeSize(), 0u) << Ctx;
      EXPECT_TRUE(Donor.empty()) << Ctx;

      IndexSet MoveAssigned = patterned(To, 0);
      IndexSet Donor2(Src);
      MoveAssigned = std::move(Donor2);
      EXPECT_EQ(MoveAssigned, Src) << Ctx;
      EXPECT_EQ(Donor2.universeSize(), 0u) << Ctx;

      // A moved-from set takes new contents of either size.
      Donor = patterned(To, 1);
      EXPECT_EQ(Donor, patterned(To, 1)) << Ctx;
      Donor2 = Donor;
      EXPECT_EQ(Donor2, Donor) << Ctx;
    }
  }
}

TEST(IndexSetTest, SelfAssignmentKeepsContents) {
  for (unsigned U : Universes) {
    IndexSet S = patterned(U, 2);
    const IndexSet Before(S);
    IndexSet &Alias = S;
    S = Alias;
    EXPECT_EQ(S, Before) << "universe " << U;
    S = std::move(Alias);
    EXPECT_EQ(S, Before) << "universe " << U;
  }
}

TEST(IndexSetTest, EqualityAcrossUniverses) {
  for (unsigned A : Universes) {
    for (unsigned B : Universes) {
      IndexSet SA(A), SB(B);
      if (A != 0 && B != 0) {
        SA.insert(0);
        SB.insert(0);
      }
      // Equal only over the same universe, even with the same elements.
      EXPECT_EQ(SA == SB, A == B) << A << " vs " << B;
      EXPECT_EQ(SA != SB, A != B) << A << " vs " << B;
    }
  }
}

TEST(IndexSetTest, VectorGrowthKeepsElements) {
  std::vector<IndexSet> Sets;
  for (unsigned I = 0; I != 100; ++I)
    Sets.push_back(patterned(Universes[I % 6], I % 3));
  for (unsigned I = 0; I != 100; ++I)
    EXPECT_EQ(Sets[I], patterned(Universes[I % 6], I % 3)) << "set " << I;
}

TEST(IdIndexTest, GrowsAndFindsEveryId) {
  // Keys live in the caller's storage; the index holds only ids. 5,000
  // ids take the table from 64 slots through eight doublings.
  std::vector<uint64_t> Keys;
  IdIndex Index;
  auto hashOf = [&Keys](uint32_t Id) { return mixKey(Keys[Id]); };
  auto keyIs = [&Keys](uint64_t Key) {
    return [&Keys, Key](uint32_t Id) { return Keys[Id] == Key; };
  };
  for (uint64_t K = 0; K != 5000; ++K) {
    const uint64_t Key = K * 7919 + 13;
    uint32_t &Slot = Index.probe(mixKey(Key), keyIs(Key), hashOf);
    ASSERT_EQ(Slot, IdIndex::Empty) << "key " << Key;
    Keys.push_back(Key);
    Index.publish(Slot, uint32_t(Keys.size() - 1));
  }
  for (uint32_t Id = 0; Id != Keys.size(); ++Id) {
    EXPECT_EQ(Index.find(mixKey(Keys[Id]), keyIs(Keys[Id])), Id);
    EXPECT_EQ(Index.probe(mixKey(Keys[Id]), keyIs(Keys[Id]), hashOf), Id);
  }
  EXPECT_EQ(Index.find(mixKey(14), keyIs(14)), IdIndex::Empty);
  EXPECT_EQ(IdIndex().find(mixKey(13), keyIs(13)), IdIndex::Empty);
}

TEST(IdIndexTest, CollidingHashesProbeOn) {
  // Every key hashes to one of four values: linear probing must still
  // tell the ids apart, before and after growth.
  std::vector<uint64_t> Keys;
  IdIndex Index;
  auto hashOf = [&Keys](uint32_t Id) { return Keys[Id] % 4; };
  for (uint64_t Key = 0; Key != 300; ++Key) {
    uint32_t &Slot = Index.probe(
        Key % 4, [&](uint32_t Id) { return Keys[Id] == Key; }, hashOf);
    ASSERT_EQ(Slot, IdIndex::Empty);
    Keys.push_back(Key);
    Index.publish(Slot, uint32_t(Key));
  }
  for (uint64_t Key = 0; Key != 300; ++Key) {
    auto Matches = [&](uint32_t Id) { return Keys[Id] == Key; };
    EXPECT_EQ(Index.find(Key % 4, Matches), uint32_t(Key));
  }
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
