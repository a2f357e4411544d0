//===- tests/CorpusTest.cpp - Whole-corpus property tests ------*- C++ -*-===//
//
// Part of lalrcex.
//
// Parameterized over every corpus grammar (every Table 1 row): the grammar
// parses, the conflict count matches the baked expectation, and every
// counterexample the engine produces is well-formed — unifying examples
// are certified ambiguous by the independent DerivationCounter, and no
// "unifying" example is ever produced for a grammar known unambiguous.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "earley/DerivationCounter.h"

#include <gtest/gtest.h>

using namespace lalrcex;

namespace {

class CorpusGrammarTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusGrammarTest, ParsesAndHasExpectedConflicts) {
  const CorpusEntry &E = *findCorpusEntry(GetParam());
  std::string Err;
  std::optional<Grammar> G = parseGrammarText(E.Text, &Err);
  ASSERT_TRUE(G) << E.Name << ": " << Err;

  GrammarAnalysis A(*G);
  Automaton M(*G, A);
  ParseTable T(M);
  if (E.ExpectedConflicts >= 0) {
    EXPECT_EQ(int(T.reportedConflicts().size()), E.ExpectedConflicts)
        << E.Name;
  }
  if (E.Ambiguous == true) {
    EXPECT_FALSE(T.reportedConflicts().empty())
        << E.Name << ": ambiguous grammars must have conflicts";
  }

  // Structural sanity: every grammar symbol is reachable and productive
  // enough for the start symbol to derive something.
  EXPECT_TRUE(A.isProductive(G->startSymbol())) << E.Name;

  // LALR invariant across the corpus: every reduce item's lookahead set
  // is a subset of the classical FOLLOW set of its left-hand side.
  for (unsigned S = 0; S != M.numStates(); ++S) {
    const Automaton::State &St = M.state(S);
    for (unsigned I = 0; I != St.Items.size(); ++I) {
      if (!St.Items[I].atEnd(*G))
        continue;
      Symbol Lhs = G->production(St.Items[I].Prod).Lhs;
      EXPECT_TRUE(St.Lookaheads[I].isSubsetOf(A.follow(Lhs)))
          << E.Name << " state " << S;
    }
  }
}

TEST_P(CorpusGrammarTest, CounterexamplesAreWellFormedAndVerified) {
  const CorpusEntry &E = *findCorpusEntry(GetParam());
  BuiltGrammar B = BuiltGrammar::fromText(E.Text);
  DerivationCounter D(B.G, B.A);

  // Step budgets only, so which examples get verified depends on
  // (grammar, options) alone and never on machine load. 20,000
  // configurations per conflict is the hard-search benchmark budget.
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 20'000;
  CounterexampleFinder Finder(B.T, Opts);

  for (const ConflictReport &R : Finder.examineAll()) {
    ASSERT_TRUE(R.Example)
        << E.Name << ": no counterexample for "
        << R.TheConflict.describe(B.G);
    expectCounterexampleWellFormed(B.G, *R.Example, R.TheConflict.Token);

    const Counterexample &Ex = *R.Example;
    // The independent recognizer is O(|productions| * |yield|^2) per
    // check; cap the cross-validated size so the whole-corpus sweep
    // stays fast (long gadget yields are covered structurally above).
    bool Checkable = Ex.yield1().size() <= 25 || B.G.numProductions() < 250;
    if (Ex.Unifying) {
      EXPECT_NE(E.Ambiguous, std::optional<bool>(false))
          << E.Name << ": unifying counterexample reported for a grammar "
          << "known unambiguous: " << Ex.exampleString1(B.G);
      if (Checkable) {
        EXPECT_GE(D.countDerivations(Ex.Root, Ex.yield1()), 2u)
            << E.Name << ": " << Ex.exampleString1(B.G)
            << " is not actually ambiguous";
      }
    } else if (Checkable) {
      EXPECT_TRUE(D.derives(B.G.startSymbol(), Ex.yield1()))
          << E.Name << ": " << Ex.exampleString1(B.G);
      EXPECT_TRUE(D.derives(B.G.startSymbol(), Ex.yield2()))
          << E.Name << ": " << Ex.exampleString2(B.G);
    }
  }
}

std::vector<std::string> corpusNames() {
  std::vector<std::string> Names;
  for (const CorpusEntry &E : corpus())
    Names.push_back(E.Name);
  return Names;
}

std::string sanitize(const ::testing::TestParamInfo<std::string> &Info) {
  std::string Out = Info.param;
  for (char &C : Out)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Out;
}

INSTANTIATE_TEST_SUITE_P(AllGrammars, CorpusGrammarTest,
                         ::testing::ValuesIn(corpusNames()), sanitize);

TEST(CorpusTest, ScalabilityFamilyGrowsWithConstantConflicts) {
  for (unsigned Levels : {1u, 4u, 16u}) {
    std::string Text = scalabilityGrammarText(Levels);
    std::string Err;
    std::optional<Grammar> G = parseGrammarText(Text, &Err);
    ASSERT_TRUE(G) << Err;
    GrammarAnalysis A(*G);
    Automaton M(*G, A);
    ParseTable T(M);
    EXPECT_EQ(T.reportedConflicts().size(), 1u) << "levels " << Levels;
    EXPECT_EQ(G->numNonterminals(), Levels + 2u); // e0..eN + $accept
  }
}

} // namespace
