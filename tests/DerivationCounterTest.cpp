//===- tests/DerivationCounterTest.cpp - Validator tests -------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "earley/DerivationCounter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace lalrcex;

namespace {

std::vector<Symbol> syms(const Grammar &G, const std::string &Text) {
  std::vector<Symbol> Out;
  std::string Word;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == ' ') {
      if (!Word.empty()) {
        Symbol S = G.symbolByName(Word);
        EXPECT_TRUE(S.valid()) << "unknown symbol " << Word;
        Out.push_back(S);
        Word.clear();
      }
    } else {
      Word += Text[I];
    }
  }
  return Out;
}

TEST(DerivationCounterTest, RecognizesTerminalStrings) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
e : e PLUS t | t ;
t : NUM ;
)");
  DerivationCounter D(B.G, B.A);
  Symbol E = B.G.symbolByName("e");
  EXPECT_TRUE(D.derives(E, syms(B.G, "NUM")));
  EXPECT_TRUE(D.derives(E, syms(B.G, "NUM PLUS NUM")));
  EXPECT_FALSE(D.derives(E, syms(B.G, "PLUS NUM")));
  EXPECT_FALSE(D.derives(E, syms(B.G, "NUM PLUS")));
  EXPECT_FALSE(D.derives(E, {}));
}

TEST(DerivationCounterTest, RecognizesSententialForms) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
e : e PLUS t | t ;
t : NUM ;
)");
  DerivationCounter D(B.G, B.A);
  Symbol E = B.G.symbolByName("e");
  // Mixed terminals and nonterminals.
  EXPECT_TRUE(D.derives(E, syms(B.G, "e PLUS t")));
  EXPECT_TRUE(D.derives(E, syms(B.G, "e PLUS NUM")));
  EXPECT_TRUE(D.derives(E, syms(B.G, "t")));
  EXPECT_TRUE(D.derives(E, syms(B.G, "e")));        // self-scan
  EXPECT_TRUE(D.derives(E, syms(B.G, "t PLUS t"))); // e => e PLUS t => t ..
  EXPECT_FALSE(D.derives(E, syms(B.G, "t t")));
  EXPECT_FALSE(D.derives(E, syms(B.G, "PLUS")));
}

TEST(DerivationCounterTest, UnambiguousCountsAreOne) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
e : e PLUS t | t ;
t : NUM ;
)");
  DerivationCounter D(B.G, B.A);
  Symbol E = B.G.symbolByName("e");
  EXPECT_EQ(D.countDerivations(E, syms(B.G, "NUM PLUS NUM PLUS NUM")), 1u);
}

TEST(DerivationCounterTest, AmbiguousCountsSaturate) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("expr_prec_unresolved");
  DerivationCounter D(B.G, B.A);
  Symbol E = B.G.symbolByName("expr");
  // The paper's Fig. 11 example: two parses.
  EXPECT_EQ(D.countDerivations(E, syms(B.G, "expr PLUS expr PLUS expr")),
            2u);
  // Higher caps count more trees.
  EXPECT_GE(D.countDerivations(
                E, syms(B.G, "expr PLUS expr PLUS expr PLUS expr"), 10),
            5u);
  // A single PLUS is unambiguous.
  EXPECT_EQ(D.countDerivations(E, syms(B.G, "expr PLUS expr")), 1u);
}

TEST(DerivationCounterTest, CyclicGrammarSaturatesInsteadOfHanging) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
a : a | x ;
)");
  DerivationCounter D(B.G, B.A);
  Symbol A = B.G.symbolByName("a");
  // Infinitely many trees: a -> x, a -> a -> x, ...
  EXPECT_EQ(D.countDerivations(A, syms(B.G, "x")), 2u);
  EXPECT_EQ(D.countDerivations(A, syms(B.G, "x"), 7), 7u);
}

TEST(DerivationCounterTest, NullableCyclesSaturate) {
  // s -> s s with a nullable s: every yield has infinitely many trees,
  // and the cycle lies within one span, so only repeated solver rounds
  // can reach the cap.
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : s s | x | ;
)");
  DerivationCounter D(B.G, B.A);
  Symbol S = B.G.symbolByName("s");
  EXPECT_EQ(D.countDerivations(S, syms(B.G, "x"), 5), 5u);
  EXPECT_EQ(D.countDerivations(S, {}, 3), 3u);
  EXPECT_EQ(D.countDerivations(S, syms(B.G, "x s x"), 4), 4u);
}

TEST(DerivationCounterTest, LongRightRecursiveSentence) {
  // The worst-case-conflict grammar's nonunifying example: 23 x 29
  // repetitions of ';' closed by BREAK, 671 symbols in all. The
  // derivation tree is hundreds of levels deep.
  BuiltGrammar B = BuiltGrammar::fromCorpus("worst-case-conflict");
  DerivationCounter D(B.G, B.A);
  std::vector<Symbol> Input{B.G.symbolByName("'@'")};
  Input.insert(Input.end(), 23 * 29, B.G.symbolByName("';'"));
  for (const char *Name : {"BREAK", "THIS", "';'"})
    Input.push_back(B.G.symbolByName(Name));
  ASSERT_EQ(Input.size(), 671u);
  EXPECT_EQ(D.countDerivations(B.G.startSymbol(), Input), 1u);

  // One ';' fewer fits neither list's period, so BREAK comes too early
  // even for a prefix; the first 300 symbols are still viable.
  std::vector<Symbol> Short = Input;
  Short.erase(Short.begin() + 1);
  EXPECT_FALSE(D.derives(B.G.startSymbol(), Short));
  EXPECT_FALSE(D.derivesPrefix(B.G.startSymbol(), Short));
  EXPECT_TRUE(D.derivesPrefix(B.G.startSymbol(),
                              {Input.begin(), Input.begin() + 300}));
}

TEST(DerivationCounterTest, LongAmbiguousSentenceSaturates) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
e : e PLUS e | NUM ;
)");
  DerivationCounter D(B.G, B.A);
  Symbol E = B.G.symbolByName("e");
  std::string Text = "NUM";
  for (unsigned I = 0; I != 60; ++I)
    Text += " PLUS NUM";
  std::vector<Symbol> Input = syms(B.G, Text);
  EXPECT_EQ(D.countDerivations(E, Input, 10), 10u);
  // A trailing operator makes it a viable prefix, not a sentence.
  Input.push_back(B.G.symbolByName("PLUS"));
  EXPECT_FALSE(D.derives(E, Input));
  EXPECT_TRUE(D.derivesPrefix(E, Input));
  EXPECT_FALSE(D.derivesPrefix(E, syms(B.G, "PLUS NUM")));
}

TEST(DerivationCounterTest, NullableChains) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : a b z ;
a : x | ;
b : y | ;
)");
  DerivationCounter D(B.G, B.A);
  Symbol S = B.G.symbolByName("s");
  EXPECT_TRUE(D.derives(S, syms(B.G, "z")));
  EXPECT_TRUE(D.derives(S, syms(B.G, "x z")));
  EXPECT_TRUE(D.derives(S, syms(B.G, "y z")));
  EXPECT_TRUE(D.derives(S, syms(B.G, "x y z")));
  EXPECT_FALSE(D.derives(S, syms(B.G, "y x z")));
  EXPECT_EQ(D.countDerivations(S, syms(B.G, "z")), 1u);
}

TEST(DerivationCounterTest, DanglingElseStringIsAmbiguous) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  DerivationCounter D(B.G, B.A);
  Symbol Stmt = B.G.symbolByName("stmt");
  // The paper's unifying counterexample has exactly two parses.
  EXPECT_EQ(D.countDerivations(
                Stmt,
                syms(B.G, "if expr then if expr then stmt else stmt"), 3),
            2u);
  // A plain if statement is unambiguous.
  EXPECT_EQ(
      D.countDerivations(Stmt, syms(B.G, "if expr then stmt else stmt"), 3),
      1u);
}

TEST(DerivationCounterTest, ValidatesEngineCounterexamples) {
  // The keystone property: every unifying counterexample the engine
  // reports is certified ambiguous by an independent implementation, and
  // every nonunifying side derives.
  for (const char *Name :
       {"figure1", "figure3", "figure7", "expr_prec_unresolved"}) {
    BuiltGrammar B = BuiltGrammar::fromCorpus(Name);
    DerivationCounter D(B.G, B.A);
    CounterexampleFinder Finder(B.T);
    for (const ConflictReport &R : Finder.examineAll()) {
      ASSERT_TRUE(R.Example) << Name;
      const Counterexample &Ex = *R.Example;
      if (Ex.Unifying) {
        EXPECT_GE(D.countDerivations(Ex.Root, Ex.yield1()), 2u)
            << Name << ": " << Ex.exampleString1(B.G)
            << " reported unifying but not ambiguous";
      } else {
        EXPECT_TRUE(D.derives(Ex.Root, Ex.yield1()))
            << Name << ": " << Ex.exampleString1(B.G);
        EXPECT_TRUE(D.derives(Ex.Root, Ex.yield2()))
            << Name << ": " << Ex.exampleString2(B.G);
      }
    }
  }
}

} // namespace
