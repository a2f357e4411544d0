//===- tests/EdgeCaseTest.cpp - Error paths and option knobs ---*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "grammar/GrammarBuilder.h"
#include "lexer/Lexer.h"
#include "parser/LrParser.h"

#include <gtest/gtest.h>

using namespace lalrcex;

namespace {

TEST(BuilderErrorTest, DuplicatePrecedenceRejected) {
  GrammarBuilder B;
  B.left({"PLUS"});
  B.right({"PLUS"});
  B.rule("e", {"e", "PLUS", "e"});
  std::string Err;
  EXPECT_FALSE(B.build(&Err));
  EXPECT_NE(Err.find("declared twice"), std::string::npos) << Err;
}

TEST(BuilderErrorTest, PrecedenceOnNonterminalRejected) {
  GrammarBuilder B;
  B.left({"e"});
  B.rule("e", {"x"});
  std::string Err;
  EXPECT_FALSE(B.build(&Err));
  EXPECT_NE(Err.find("nonterminal"), std::string::npos) << Err;
}

TEST(BuilderErrorTest, PrecNonterminalRejected) {
  GrammarBuilder B;
  B.rule("e", {"x"}, /*PrecName=*/"f");
  B.rule("f", {"y"});
  std::string Err;
  EXPECT_FALSE(B.build(&Err));
  EXPECT_NE(Err.find("%prec"), std::string::npos) << Err;
}

TEST(EpsilonGrammarTest, WholeLanguageIsEmptyString) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : ;
)");
  EXPECT_TRUE(B.T.reportedConflicts().empty());
  LrParser P(B.T);
  EXPECT_TRUE(P.parse({}).Accepted);
  EXPECT_FALSE(P.parse({B.G.eof()}).Accepted); // '$' is not user input
}

TEST(EpsilonGrammarTest, NullableChainsThroughAutomaton) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : a b c ;
a : | x ;
b : | y ;
c : | z ;
)");
  EXPECT_TRUE(B.T.reportedConflicts().empty());
  LrParser P(B.T);
  for (const char *Input : {"", "x", "y", "z", "x y", "x z", "y z",
                            "x y z"})
    EXPECT_TRUE(P.parseText(Input).Accepted) << Input;
  EXPECT_FALSE(P.parseText("z y").Accepted);
}

TEST(UnifyingKnobsTest, ZeroDuplicateCostStillFindsDanglingElse) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  StateItemGraph Graph(B.M);
  UnifyingSearch Search(Graph);
  Symbol Else = B.G.symbolByName("else");
  for (const Conflict &C : B.T.reportedConflicts()) {
    if (C.Token != Else)
      continue;
    StateItemGraph::NodeId Reduce =
        Graph.nodeFor(C.State, C.reduceItem(B.G));
    StateItemGraph::NodeId Shift = Graph.nodeFor(C.State, C.ShiftItm);
    std::optional<LssPath> Path =
        shortestLookaheadSensitivePath(Graph, Reduce, Else);
    ASSERT_TRUE(Path);
    UnifyingOptions Opts;
    Opts.DuplicateProductionCost = 0;
    UnifyingResult R =
        Search.search(Reduce, Shift, Else, &*Path, Opts);
    EXPECT_EQ(R.Status, UnifyingStatus::Found);
  }
}

TEST(ExpectTest, ReduceReduceExpectationPath) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%expect 0
%expect-rr 2
%%
s : a X | b X ;
a : W ;
b : W ;
)");
  std::string Msg = B.T.checkExpectations();
  EXPECT_NE(Msg.find("expected 2 reduce/reduce conflicts, found 1"),
            std::string::npos)
      << Msg;
  EXPECT_EQ(Msg.find("shift/reduce"), std::string::npos) << Msg;
}

TEST(LexerEdgeTest, TrailingBackslashInString) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%token STR
%%
s : STR ;
)");
  LexSpec Spec = LexSpec::fromGrammar(B.G);
  Spec.strings(B.G.symbolByName("STR"));
  // A lone backslash at end of input must not read past the buffer.
  EXPECT_FALSE(Spec.tokenize("\"abc\\").Ok);
}

TEST(LexerEdgeTest, NumberWithTrailingDotIsNotAFraction) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%token NUM
%%
s : NUM '.' ;
)");
  LexSpec Spec = LexSpec::fromGrammar(B.G);
  Spec.numbers(B.G.symbolByName("NUM"));
  LexOutcome R = Spec.tokenize("12 .");
  ASSERT_TRUE(R.Ok) << R.ErrorMessage;
  ASSERT_EQ(R.Tokens.size(), 2u);
  EXPECT_EQ(R.Tokens[0].Text, "12");
  // "12." without a following digit: the dot is its own token.
  LexOutcome R2 = Spec.tokenize("12.");
  ASSERT_TRUE(R2.Ok) << R2.ErrorMessage;
  ASSERT_EQ(R2.Tokens.size(), 2u);
}

TEST(CounterexampleEdgeTest, ConflictOnEndOfInput) {
  // A conflict whose lookahead is the end-of-input marker: the example's
  // dot has nothing after it.
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : a | a b ;
a : X | X Y ;
b : Y ;
)");
  // After X, "a -> X ." conflicts with shift Y (a -> X . Y) under Y; but
  // also check any $-lookahead conflicts work. Run everything.
  CounterexampleFinder Finder(B.T);
  for (const ConflictReport &R : Finder.examineAll()) {
    ASSERT_TRUE(R.Example) << Finder.render(R);
    expectCounterexampleWellFormed(B.G, *R.Example, R.TheConflict.Token);
  }
}

} // namespace
