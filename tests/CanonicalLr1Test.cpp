//===- tests/CanonicalLr1Test.cpp - Canonical LR(1) mode -------*- C++ -*-===//
//
// Part of lalrcex.
//
// The canonical LR(1) construction (AutomatonKind::Canonical): more
// states, no lookahead merging. The counterexample machinery runs on it
// unchanged, which lets us verify the LALR-merge-artifact story: genuine
// ambiguities keep their conflicts in LR(1), while merge-artifact
// reduce/reduce conflicts disappear.
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "earley/DerivationCounter.h"
#include "parser/LrParser.h"

#include <gtest/gtest.h>

using namespace lalrcex;

namespace {

struct CanonicalBuilt {
  Grammar G;
  GrammarAnalysis A;
  Automaton M;
  ParseTable T;

  explicit CanonicalBuilt(Grammar InG)
      : G(std::move(InG)), A(G), M(G, A, AutomatonKind::Canonical), T(M) {}
};

TEST(CanonicalLr1Test, DragonGrammar455HasMoreStates) {
  // Dragon 4.55: LALR has 7 states, canonical LR(1) has 10.
  std::optional<Grammar> G = parseGrammarText(R"(
%%
S : C C ;
C : c C | d ;
)");
  ASSERT_TRUE(G);
  GrammarAnalysis A(*G);
  Automaton Lalr(*G, A, AutomatonKind::Lalr1);
  Automaton Canon(*G, A, AutomatonKind::Canonical);
  EXPECT_EQ(Lalr.numStates(), 7u);
  EXPECT_EQ(Canon.numStates(), 10u);
  EXPECT_EQ(Canon.kind(), AutomatonKind::Canonical);
  // Both are conflict-free.
  EXPECT_TRUE(ParseTable(Lalr).conflicts().empty());
  EXPECT_TRUE(ParseTable(Canon).conflicts().empty());
}

TEST(CanonicalLr1Test, AmbiguityConflictsSurvive) {
  // Genuine ambiguities conflict in any LR(k) automaton. Canonical
  // construction splits merged states, so the same item-pair conflict can
  // recur in several states: at least as many conflicts as LALR.
  CanonicalBuilt B(loadCorpusGrammar("figure1"));
  EXPECT_GE(B.T.reportedConflicts().size(), 3u);

  CanonicalBuilt B2(loadCorpusGrammar("expr_prec_unresolved"));
  EXPECT_EQ(B2.T.reportedConflicts().size(), 1u);
}

TEST(CanonicalLr1Test, Lr2ConflictSurvives) {
  // figure3 is LR(2): one lookahead cannot decide, even canonically.
  CanonicalBuilt B(loadCorpusGrammar("figure3"));
  EXPECT_EQ(B.T.reportedConflicts().size(), 1u);
}

TEST(CanonicalLr1Test, MergeArtifactConflictDisappears) {
  // An LALR-only reduce/reduce conflict: "q A y | q B z" puts A -> x and
  // B -> x into one LR(0) state where LALR merges the {y} and {z}
  // contexts with those of "r A z | r B y", manufacturing a conflict.
  // Canonical LR(1) keeps the contexts apart.
  const char *Text = R"(
%%
s : q A y | q B z | r A z | r B y ;
A : x ;
B : x ;
)";
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G);
  GrammarAnalysis A(*G);
  Automaton Lalr(*G, A, AutomatonKind::Lalr1);
  Automaton Canon(*G, A, AutomatonKind::Canonical);
  EXPECT_FALSE(ParseTable(Lalr).reportedConflicts().empty())
      << "LALR merging should manufacture a conflict";
  EXPECT_TRUE(ParseTable(Canon).reportedConflicts().empty())
      << "canonical LR(1) must not have the merge artifact";

  // And the LALR counterexample engine shows the two derivations in
  // separate contexts here (which alone does not prove a merge artifact:
  // see UnbridgedPrefixIsNotClaimedMergeArtifact).
  ParseTable T(Lalr);
  CounterexampleFinder Finder(T);
  bool SawMergeArtifact = false;
  for (const ConflictReport &R : Finder.examineAll()) {
    ASSERT_TRUE(R.Example);
    if (!R.Example->Unifying && !R.Example->PrefixShared)
      SawMergeArtifact = true;
  }
  EXPECT_TRUE(SawMergeArtifact);
}

TEST(CanonicalLr1Test, UnbridgedPrefixIsNotClaimedMergeArtifact) {
  // Random grammar 9108: in LALR state 4, n4 ::= • and n4 ::= t1 • both
  // reduce on t2. The nonunifying builder finds no context for the second
  // reduction along the first one's shortest lookahead-sensitive path, so
  // the report shows each derivation in its own context. Yet the prefix
  // "t1 t1" admits both reductions, and canonical LR(1) keeps the same
  // conflict in a state with the same core: the report must not call the
  // conflict an artifact of LALR state merging.
  BuiltGrammar B = BuiltGrammar::fromText(
      lalrcex::testing::randomGrammarText(9108, 4 + 9108 % 5, 3 + 9108 % 4));
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 5000;
  Opts.Jobs = 1;
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<const ConflictReport *> Unbridged;
  std::vector<ConflictReport> Reports = Finder.examineAll();
  for (const ConflictReport &R : Reports)
    if (R.Example && !R.Example->Unifying && !R.Example->PrefixShared)
      Unbridged.push_back(&R);
  ASSERT_EQ(Unbridged.size(), 1u);
  const Conflict &C = Unbridged[0]->TheConflict;
  ASSERT_EQ(C.K, Conflict::ReduceReduce);
  EXPECT_EQ(C.State, 4u);
  EXPECT_EQ(B.G.name(C.Token), "t2");
  EXPECT_EQ(B.G.productionString(C.ReduceProd, 0), "n4 ::= \xE2\x80\xA2");
  EXPECT_EQ(B.G.productionString(C.OtherProd, 1),
            "n4 ::= t1 \xE2\x80\xA2");

  std::string Text = Finder.render(*Unbridged[0]);
  EXPECT_EQ(Text.find("no single context admits both actions"),
            std::string::npos)
      << Text;
  EXPECT_EQ(Text.find("artifact of LALR state merging"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("each derivation below is shown in its own context"),
            std::string::npos)
      << Text;

  // Canonical LR(1) keeps the conflict in a state whose core is state 4.
  const Automaton::State &Lalr4 = B.M.state(C.State);
  std::vector<Item> Core(Lalr4.Items.begin(),
                         Lalr4.Items.begin() + Lalr4.NumKernel);
  CanonicalBuilt Canon(B.G);
  bool Kept = false;
  for (const Conflict &CC : Canon.T.reportedConflicts()) {
    const Automaton::State &S = Canon.M.state(CC.State);
    if (CC.K == C.K && CC.Token == C.Token && CC.ReduceProd == C.ReduceProd &&
        CC.OtherProd == C.OtherProd &&
        std::vector<Item>(S.Items.begin(), S.Items.begin() + S.NumKernel) ==
            Core)
      Kept = true;
  }
  EXPECT_TRUE(Kept);
}

TEST(CanonicalLr1Test, CounterexamplesWorkOnCanonicalAutomata) {
  // The searches consume only items/lookaheads/transitions, so the whole
  // pipeline runs on canonical automata too — and still reproduces the
  // dangling-else counterexample.
  CanonicalBuilt B(loadCorpusGrammar("figure1"));
  DerivationCounter D(B.G, B.A);
  CounterexampleFinder Finder(B.T);
  Symbol Else = B.G.symbolByName("else");
  bool Checked = false;
  for (const ConflictReport &R : Finder.examineAll()) {
    ASSERT_TRUE(R.Example);
    expectCounterexampleWellFormed(B.G, *R.Example, R.TheConflict.Token);
    if (R.Example->Unifying) {
      EXPECT_GE(D.countDerivations(R.Example->Root, R.Example->yield1()),
                2u);
    }
    if (R.TheConflict.Token == Else) {
      Checked = true;
      EXPECT_EQ(R.Example->exampleString1(B.G),
                "if expr then if expr then stmt \xE2\x80\xA2 else stmt");
    }
  }
  EXPECT_TRUE(Checked);
}

TEST(CanonicalLr1Test, ParserRuntimeWorksOnCanonicalTables) {
  std::optional<Grammar> G = parseGrammarText(R"(
%left PLUS
%left TIMES
%%
e : e PLUS e | e TIMES e | NUM ;
)");
  ASSERT_TRUE(G);
  GrammarAnalysis A(*G);
  Automaton M(*G, A, AutomatonKind::Canonical);
  ParseTable T(M);
  LrParser P(T);
  ParseOutcome R = P.parseText("NUM PLUS NUM TIMES NUM");
  ASSERT_TRUE(R.Accepted) << R.ErrorMessage;
  EXPECT_EQ(R.Tree->toSExpr(*G),
            "(e (e NUM) PLUS (e (e NUM) TIMES (e NUM)))");
}

TEST(CanonicalLr1Test, CorpusConflictClassesAgreeWithLalrForAmbiguity) {
  // For every small ambiguous corpus grammar, canonical LR(1) still has
  // at least one conflict (ambiguity is automaton-independent).
  for (const char *Name : {"figure1", "figure7", "abcd", "eqn",
                           "stackovf05", "SQL.1"}) {
    CanonicalBuilt B(loadCorpusGrammar(Name));
    EXPECT_FALSE(B.T.reportedConflicts().empty()) << Name;
  }
}

} // namespace
