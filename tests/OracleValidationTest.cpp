//===- tests/OracleValidationTest.cpp - Earley-oracle layer ----*- C++ -*-===//
//
// Part of lalrcex.
//
// The independent-oracle property layer over the random-grammar corpus:
// every unifying counterexample the finder emits must be certified
// genuinely ambiguous by the Earley derivation counter (at least two
// distinct derivations of the same sentence from the same root), and
// every nonunifying pair must actually be derivable — including the
// claimed conflict-point prefix followed by the conflict terminal. The
// oracle shares no code with the searches it checks, so agreement here is
// evidence about the algorithm, not the implementation.
//
// The same corpus is then pushed through the persistent cache: for every
// seed, warm reports must be byte-identical to cold, at every job count.
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "earley/DerivationCounter.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace lalrcex;
using lalrcex::testing::randomGrammarText;

namespace {

/// Deterministic budgets for reproducible reports: no wall-clock
/// deadlines (both limits 0 = disabled), generous step caps so small
/// random grammars complete their searches outright.
FinderOptions oracleOptions() {
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 50'000;
  Opts.CumulativeMaxConfigurations = 200'000;
  Opts.Jobs = 1;
  return Opts;
}

class OracleValidationTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleValidationTest, EveryCounterexampleSurvivesTheOracle) {
  uint64_t Seed = uint64_t(GetParam());
  std::string Text = randomGrammarText(Seed, 4 + unsigned(Seed % 6), 4);
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G) << Text;
  GrammarAnalysis A(*G);
  if (!A.isProductive(G->startSymbol()))
    GTEST_SKIP() << "start symbol unproductive for this seed";

  Automaton M(*G, A);
  ParseTable T(M);
  DerivationCounter D(*G, A);
  CounterexampleFinder Finder(T, oracleOptions());

  for (const ConflictReport &R : Finder.examineAll()) {
    if (!R.Example)
      continue; // step-capped seeds may degrade; oracle checks need trees
    const Counterexample &Ex = *R.Example;
    expectCounterexampleWellFormed(*G, Ex, R.TheConflict.Token);

    if (Ex.Unifying) {
      // The defining property of a unifying counterexample: its single
      // sentence has two distinct derivations from the unifying root.
      EXPECT_GE(D.countDerivations(Ex.Root, Ex.yield1()), 2u)
          << Text << "\nclaimed-unifying example is not ambiguous: "
          << Ex.exampleString1(*G);
    } else {
      // Both sides must be real sentential forms of the start symbol...
      EXPECT_TRUE(D.derives(G->startSymbol(), Ex.yield1()))
          << Text << "\nunderivable: " << Ex.exampleString1(*G);
      EXPECT_TRUE(D.derives(G->startSymbol(), Ex.yield2()))
          << Text << "\nunderivable: " << Ex.exampleString2(*G);
      // ...and the claimed conflict point must be honest: some sentence
      // extends the prefix up to the dot plus the conflict terminal.
      int Dot1 = -1, Dot2 = -1;
      std::vector<Symbol> Y1 = yieldOf(Ex.Derivs1, &Dot1);
      std::vector<Symbol> Y2 = yieldOf(Ex.Derivs2, &Dot2);
      ASSERT_GE(Dot1, 0);
      ASSERT_GE(Dot2, 0);
      std::vector<Symbol> P1(Y1.begin(), Y1.begin() + Dot1);
      std::vector<Symbol> P2(Y2.begin(), Y2.begin() + Dot2);
      if (R.TheConflict.Token.valid() &&
          R.TheConflict.Token != G->eof()) {
        P1.push_back(R.TheConflict.Token);
        P2.push_back(R.TheConflict.Token);
      }
      EXPECT_TRUE(D.derivesPrefix(G->startSymbol(), P1))
          << Text << "\nconflict-point prefix not viable: "
          << Ex.exampleString1(*G);
      EXPECT_TRUE(D.derivesPrefix(G->startSymbol(), P2))
          << Text << "\nconflict-point prefix not viable: "
          << Ex.exampleString2(*G);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleValidationTest,
                         ::testing::Range(0, 40));

/// The corpus grammars through the same oracle, via the warm-cache path:
/// restored reports must carry examples that still satisfy the oracle
/// (i.e. deserialization reconstructed real derivation trees, not just
/// well-typed ones).
TEST(OracleValidationTest, CorpusUnifyingExamplesAmbiguousAfterRestore) {
  std::string Dir = ::testing::TempDir() + "lalrcex_oracle_corpus";
  std::filesystem::remove_all(Dir);
  for (const char *Name : {"figure1", "expr_prec_unresolved", "stackexc01"}) {
    BuiltGrammar B = BuiltGrammar::fromCorpus(Name);
    DerivationCounter D(B.G, B.A);
    FinderOptions Opts = oracleOptions();
    Opts.CachePath = Dir;

    CounterexampleFinder Cold(B.T, Opts);
    Cold.examineAll();
    CounterexampleFinder Warm(B.T, Opts);
    std::vector<ConflictReport> Reports = Warm.examineAll();
    ASSERT_TRUE(Warm.cacheActivity().ReportsFromCache) << Name;

    for (const ConflictReport &R : Reports) {
      if (!R.Example || !R.Example->Unifying)
        continue;
      if (R.Example->yield1().size() > 40)
        continue; // keep the independent check cheap
      expectCounterexampleWellFormed(B.G, *R.Example, R.TheConflict.Token);
      EXPECT_GE(D.countDerivations(R.Example->Root, R.Example->yield1()), 2u)
          << Name << ": restored unifying example not ambiguous: "
          << R.Example->exampleString1(B.G);
    }
  }
  std::filesystem::remove_all(Dir);
}

/// Cold/warm byte-equality over the random corpus: for each seed with
/// conflicts, the canonical report bytes must be identical between the
/// cold run and warm runs at Jobs 1 and 4.
class OracleCacheEqualityTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleCacheEqualityTest, WarmReportsByteIdenticalToCold) {
  uint64_t Seed = uint64_t(GetParam()) + 2000;
  std::string Text = randomGrammarText(Seed, 4 + unsigned(Seed % 5), 4);
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G) << Text;
  GrammarAnalysis A(*G);
  if (!A.isProductive(G->startSymbol()))
    GTEST_SKIP();
  Automaton M(*G, A);
  ParseTable T(M);
  if (T.reportedConflicts().empty())
    GTEST_SKIP() << "seed has no reported conflicts";

  std::string Dir = ::testing::TempDir() + "lalrcex_oracle_eq_" +
                    std::to_string(Seed);
  std::filesystem::remove_all(Dir);

  FinderOptions Opts = oracleOptions();
  Opts.CachePath = Dir;
  CounterexampleFinder Cold(T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  ASSERT_FALSE(Cold.cacheActivity().ReportsFromCache);
  std::string ColdBytes = reportBytes(ColdReports);

  for (unsigned Jobs : {1u, 4u}) {
    FinderOptions WarmOpts = Opts;
    WarmOpts.Jobs = Jobs;
    CounterexampleFinder Warm(T, WarmOpts);
    std::vector<ConflictReport> WarmReports = Warm.examineAll();
    EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache)
        << Text << "Jobs=" << Jobs;
    EXPECT_EQ(reportBytes(WarmReports), ColdBytes)
        << Text << "warm bytes diverge at Jobs=" << Jobs;
  }
  std::filesystem::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleCacheEqualityTest,
                         ::testing::Range(0, 25));

} // namespace
