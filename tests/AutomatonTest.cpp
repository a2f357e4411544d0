//===- tests/AutomatonTest.cpp - LALR automaton tests ----------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "lr/Automaton.h"

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "grammar/GrammarParser.h"

#include <gtest/gtest.h>

using namespace lalrcex;

namespace {

Grammar parse(const std::string &Text) {
  std::string Err;
  std::optional<Grammar> G = parseGrammarText(Text, &Err);
  EXPECT_TRUE(G) << Err;
  return std::move(*G);
}

/// Dragon Book grammar 4.55, the classic LALR example:
///   S -> C C ; C -> c C | d
/// LR(0) has 7 states (plus accept bookkeeping); LALR lookaheads for the
/// C -> d item differ per state.
TEST(AutomatonTest, DragonGrammar455) {
  Grammar G = parse(R"(
%%
S : C C ;
C : c C | d ;
)");
  GrammarAnalysis A(G);
  Automaton M(G, A);

  // The canonical LR(0) collection for this grammar has 7 states.
  EXPECT_EQ(M.numStates(), 7u);

  Symbol C = G.symbolByName("C");
  Symbol Sc = G.symbolByName("c");
  Symbol Sd = G.symbolByName("d");

  // State 0 kernel: the augmented item with lookahead {$}.
  const IndexSet &AugLA =
      M.lookahead(0, Item(G.augmentedProduction(), 0));
  EXPECT_TRUE(AugLA.contains(G.eof().id()));
  EXPECT_EQ(AugLA.count(), 1u);

  // In state 0, the closure item C -> . c C has lookahead {c, d}: the
  // first C of "C C" is followed by FIRST(C) = {c, d}.
  unsigned CtoCC = G.productionsOf(C)[0]; // C -> c C
  const IndexSet &LA0 = M.lookahead(0, Item(CtoCC, 0));
  EXPECT_TRUE(LA0.contains(Sc.id()));
  EXPECT_TRUE(LA0.contains(Sd.id()));
  EXPECT_FALSE(LA0.contains(G.eof().id()));

  // After shifting the first C, the next C is followed by {$} only:
  // goto(0, C) has closure item C -> . c C with lookahead {$}.
  int S2 = M.transition(0, C);
  ASSERT_GE(S2, 0);
  const IndexSet &LA2 = M.lookahead(unsigned(S2), Item(CtoCC, 0));
  EXPECT_TRUE(LA2.contains(G.eof().id()));
  EXPECT_FALSE(LA2.contains(Sc.id()));

  // LALR merging: goto(0, c) reaches the c-kernel state whose C -> . d
  // item has the merged lookahead {c, d, $}.
  int Sc1 = M.transition(0, Sc);
  ASSERT_GE(Sc1, 0);
  unsigned CtoD = G.productionsOf(C)[1]; // C -> d
  const IndexSet &LAcd = M.lookahead(unsigned(Sc1), Item(CtoD, 0));
  EXPECT_TRUE(LAcd.contains(Sc.id()));
  EXPECT_TRUE(LAcd.contains(Sd.id()));
  EXPECT_TRUE(LAcd.contains(G.eof().id()));
}

TEST(AutomatonTest, TransitionsAreDeterministicAndComplete) {
  Grammar G = loadCorpusGrammar("figure1");
  GrammarAnalysis A(G);
  Automaton M(G, A);

  for (unsigned S = 0; S != M.numStates(); ++S) {
    const Automaton::State &St = M.state(S);
    // Every item with a symbol after the dot has a transition on it, and
    // the advanced item is in the target state.
    for (const Item &I : St.Items) {
      Symbol Next = I.afterDot(G);
      if (!Next.valid())
        continue;
      int T = M.transition(S, Next);
      ASSERT_GE(T, 0);
      EXPECT_GE(M.state(unsigned(T)).indexOfItem(I.advanced()), 0);
    }
    // Transitions are sorted and unique per symbol.
    for (size_t I = 1; I < St.Transitions.size(); ++I)
      EXPECT_LT(St.Transitions[I - 1].first, St.Transitions[I].first);
  }
}

TEST(AutomatonTest, KernelItemsComeFirst) {
  Grammar G = loadCorpusGrammar("figure3");
  GrammarAnalysis A(G);
  Automaton M(G, A);
  for (unsigned S = 0; S != M.numStates(); ++S) {
    const Automaton::State &St = M.state(S);
    ASSERT_LE(St.NumKernel, St.Items.size());
    for (unsigned I = 0; I != St.Items.size(); ++I) {
      bool IsKernel = St.Items[I].Dot > 0 ||
                      St.Items[I].Prod == G.augmentedProduction();
      EXPECT_EQ(I < St.NumKernel, IsKernel)
          << "state " << S << " item " << I;
    }
  }
}

TEST(AutomatonTest, LookaheadsNeverEmptyForReachableReduceItems) {
  for (const char *Name : {"figure1", "figure3", "figure7"}) {
    Grammar G = loadCorpusGrammar(Name);
    GrammarAnalysis A(G);
    Automaton M(G, A);
    for (unsigned S = 0; S != M.numStates(); ++S) {
      const Automaton::State &St = M.state(S);
      for (unsigned I = 0; I != St.Items.size(); ++I) {
        if (St.Items[I].atEnd(G)) {
          EXPECT_FALSE(St.Lookaheads[I].empty())
              << Name << " state " << S;
        }
      }
    }
  }
}

/// The dangling-else conflict state must contain both conflicting items
/// with "else" in the reduce item's lookahead (paper Fig. 2, state 10).
TEST(AutomatonTest, DanglingElseLookaheads) {
  Grammar G = loadCorpusGrammar("figure1");
  GrammarAnalysis A(G);
  Automaton M(G, A);

  Symbol Stmt = G.symbolByName("stmt");
  Symbol Else = G.symbolByName("else");
  ASSERT_TRUE(Else.valid());

  Symbol If = G.symbolByName("if");
  unsigned LongIf = 0, ShortIf = 0;
  for (unsigned P : G.productionsOf(Stmt)) {
    const Production &Prod = G.production(P);
    if (Prod.Rhs.empty() || Prod.Rhs[0] != If)
      continue;
    if (Prod.Rhs.size() == 6)
      LongIf = P;
    else if (Prod.Rhs.size() == 4)
      ShortIf = P;
  }
  ASSERT_NE(LongIf, 0u);
  ASSERT_NE(ShortIf, 0u);

  // Find the state containing the completed short-if item.
  bool Found = false;
  for (unsigned S = 0; S != M.numStates(); ++S) {
    int Idx = M.state(S).indexOfItem(Item(ShortIf, 4));
    if (Idx < 0)
      continue;
    Found = true;
    EXPECT_GE(M.state(S).indexOfItem(Item(LongIf, 4)), 0)
        << "shift item missing from conflict state";
    EXPECT_TRUE(M.state(S).Lookaheads[unsigned(Idx)].contains(Else.id()))
        << "reduce item lacks 'else' lookahead";
  }
  EXPECT_TRUE(Found);
}

/// Production index of \p Lhs ::= \p Rhs (space-separated names).
unsigned productionOf(const Grammar &G, const std::string &Lhs,
                      const std::string &Rhs) {
  for (unsigned P : G.productionsOf(G.symbolByName(Lhs))) {
    std::string Text;
    for (Symbol S : G.production(P).Rhs)
      Text += (Text.empty() ? "" : " ") + G.name(S);
    if (Text == Rhs)
      return P;
  }
  ADD_FAILURE() << "no production " << Lhs << " ::= " << Rhs;
  return 0;
}

using Names = std::vector<std::vector<std::string>>;

/// The lookahead of \p I in every state holding it, as sorted names.
Names lookaheadNames(const Grammar &G, const Automaton &M, const Item &I) {
  Names Out;
  for (unsigned S = 0; S != M.numStates(); ++S) {
    int Idx = M.state(S).indexOfItem(I);
    if (Idx < 0)
      continue;
    std::vector<std::string> Terms;
    M.state(S).Lookaheads[unsigned(Idx)].forEach(
        [&](unsigned T) { Terms.push_back(G.name(Symbol(int32_t(T)))); });
    std::sort(Terms.begin(), Terms.end());
    Out.push_back(Terms);
  }
  return Out;
}

/// A reads cycle: in m ::= n p q m with n, p and q nullable, the gotos on
/// p, q and n lead from the state holding m ::= n . p q m through
/// m ::= n p . q m and m ::= n p q . m back to it, so (s1, p) reads
/// (s2, q) reads (s3, n) reads (s1, p). Each member reads a different
/// terminal directly, and every reduce item of n, p and q must carry all
/// three plus the closing b: a component member missing the root's set
/// shows up here.
TEST(AutomatonTest, ReadsCycleThroughNullableNonterminals) {
  Grammar G = parse(R"(
%%
s : a m b ;
m : n p q m | ;
n : | c ;
p : | d ;
q : | e ;
)");
  GrammarAnalysis A(G);
  expectAutomatonMatchesReference(G, A, AutomatonKind::Lalr1, "reads cycle");
  Automaton M(G, A);
  const std::vector<std::string> All{"b", "c", "d", "e"};
  for (const char *Nt : {"n", "p", "q"}) {
    Names LAs = lookaheadNames(G, M, Item(productionOf(G, Nt, ""), 0));
    EXPECT_FALSE(LAs.empty()) << Nt;
    for (const auto &LA : LAs)
      EXPECT_EQ(LA, All) << Nt;
  }
}

/// An includes cycle from mutual right recursion with nullable tails:
/// (q1, B) includes (q3, A) includes (q2, C) includes (q1, B), one
/// strongly connected component whose members each read a different
/// terminal and must all receive the same Follow set.
TEST(AutomatonTest, IncludesCycleFromMutualRightRecursion) {
  Grammar G = parse(R"(
%%
s : A ;
A : x B T | z ;
B : y C U | w ;
C : v A V | k ;
T : | t ;
U : | u ;
V : | r ;
)");
  GrammarAnalysis A(G);
  expectAutomatonMatchesReference(G, A, AutomatonKind::Lalr1,
                                  "includes cycle");
  Automaton M(G, A);
  const std::vector<std::string> All{"$", "r", "t", "u"};
  // A ::= . z sits in state 0 (Follow {$}) and in the state after v.
  EXPECT_EQ(lookaheadNames(G, M, Item(productionOf(G, "A", "z"), 0)),
            (Names{{"$"}, All}));
  EXPECT_EQ(lookaheadNames(G, M, Item(productionOf(G, "B", "w"), 0)),
            (Names{All}));
  EXPECT_EQ(lookaheadNames(G, M, Item(productionOf(G, "C", "k"), 0)),
            (Names{All}));
  EXPECT_EQ(lookaheadNames(G, M, Item(productionOf(G, "A", "x B T"), 3)),
            (Names{All}));
}

/// The LALR merge artifact of CanonicalLr1Test: A ::= x . and B ::= x .
/// share one state whose two reduce items both carry exactly {y, z}.
TEST(AutomatonTest, MergeArtifactReduceItemsCarryBothContexts) {
  Grammar G = parse(R"(
%%
s : q A y | q B z | r A z | r B y ;
A : x ;
B : x ;
)");
  GrammarAnalysis A(G);
  expectAutomatonMatchesReference(G, A, AutomatonKind::Lalr1,
                                  "merge artifact");
  Automaton M(G, A);
  const Names Both{{"y", "z"}};
  EXPECT_EQ(lookaheadNames(G, M, Item(productionOf(G, "A", "x"), 1)), Both);
  EXPECT_EQ(lookaheadNames(G, M, Item(productionOf(G, "B", "x"), 1)), Both);
}

/// A 5,000-level nullable chain a0 ::= a1 | ε, ..., a4999 ::= x | ε,
/// declared in both orders: one path of 5,000 includes edges, walked from
/// either end depending on the transition numbering.
TEST(AutomatonTest, DeepNullableChainInBothDeclarationOrders) {
  constexpr unsigned Depth = 5000;
  for (bool Descending : {false, true}) {
    std::string Text = "%start a0\n%%\n";
    for (unsigned K = 0; K != Depth; ++K) {
      unsigned I = Descending ? Depth - 1 - K : K;
      Text += "a" + std::to_string(I) + " : " +
              (I + 1 == Depth ? "x" : "a" + std::to_string(I + 1)) +
              " | ;\n";
    }
    Grammar G = parse(Text);
    GrammarAnalysis A(G);
    std::string Context = Descending ? "descending chain" : "ascending chain";
    expectAutomatonMatchesReference(G, A, AutomatonKind::Lalr1, Context);
    Automaton M(G, A);
    std::string Last = "a" + std::to_string(Depth - 1);
    EXPECT_EQ(lookaheadNames(G, M, Item(productionOf(G, Last, ""), 0)),
              (Names{{"$"}}))
        << Context;
  }
}

} // namespace
