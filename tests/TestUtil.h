//===- tests/TestUtil.h - Shared test fixtures -----------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_TESTS_TESTUTIL_H
#define LALRCEX_TESTS_TESTUTIL_H

#include "corpus/Corpus.h"
#include "counterexample/CounterexampleFinder.h"
#include "grammar/GrammarParser.h"

#include <gtest/gtest.h>

namespace lalrcex {

/// Grammar, analyses, automaton, and table built together.
struct BuiltGrammar {
  Grammar G;
  GrammarAnalysis A;
  Automaton M;
  ParseTable T;

  explicit BuiltGrammar(Grammar InG) : G(std::move(InG)), A(G), M(G, A), T(M) {}

  static BuiltGrammar fromCorpus(const std::string &Name) {
    return BuiltGrammar(loadCorpusGrammar(Name));
  }

  static BuiltGrammar fromText(const std::string &Text) {
    std::string Err;
    std::optional<Grammar> G = parseGrammarText(Text, &Err);
    EXPECT_TRUE(G) << Err;
    return BuiltGrammar(std::move(*G));
  }
};

/// Builds \p G twice — default options and the reference IndexSet
/// fixpoints (PooledSets off) — and asserts equal machines: states, items,
/// kernel sizes, transitions, and every lookahead set.
inline void expectAutomatonMatchesReference(const Grammar &G,
                                            const GrammarAnalysis &A,
                                            AutomatonKind Kind,
                                            const std::string &Context) {
  Automaton MP(G, A, AutomatonOptions{Kind, /*PooledSets=*/true});
  Automaton MB(G, A, AutomatonOptions{Kind, /*PooledSets=*/false});
  ASSERT_EQ(MP.numStates(), MB.numStates()) << Context;
  for (unsigned S = 0; S != MP.numStates(); ++S) {
    const Automaton::State &SP = MP.state(S), &SB = MB.state(S);
    ASSERT_EQ(SP.Items, SB.Items) << Context << " state " << S;
    ASSERT_EQ(SP.NumKernel, SB.NumKernel) << Context << " state " << S;
    ASSERT_EQ(SP.Transitions, SB.Transitions) << Context << " state " << S;
    ASSERT_EQ(SP.Lookaheads.size(), SB.Lookaheads.size())
        << Context << " state " << S;
    for (size_t I = 0; I != SP.Lookaheads.size(); ++I)
      ASSERT_EQ(SP.Lookaheads[I], SB.Lookaheads[I])
          << Context << " state " << S << " item "
          << G.productionString(SP.Items[I].Prod, int(SP.Items[I].Dot));
  }
}

/// Checks that a derivation tree is consistent with the grammar: every
/// expanded node's children (ignoring dot markers) spell out the chosen
/// production's right-hand side.
inline void expectDerivationConsistent(const Grammar &G, const DerivPtr &D) {
  if (D->isDot() || D->isLeaf())
    return;
  const Production &P = G.production(D->productionIndex());
  EXPECT_EQ(P.Lhs, D->symbol());
  std::vector<Symbol> ChildSyms;
  for (const DerivPtr &C : D->children()) {
    if (!C->isDot())
      ChildSyms.push_back(C->symbol());
    expectDerivationConsistent(G, C);
  }
  ASSERT_EQ(ChildSyms.size(), P.Rhs.size())
      << "children of " << D->toString(G) << " do not match "
      << G.productionString(D->productionIndex());
  for (size_t I = 0; I != ChildSyms.size(); ++I)
    EXPECT_EQ(ChildSyms[I], P.Rhs[I]) << D->toString(G);
}

/// Checks the invariants of a counterexample against its conflict:
/// derivations grammar-consistent; unifying examples have equal yields and
/// distinct derivations of the same nonterminal; nonunifying examples share
/// the prefix up to the conflict point.
inline void expectCounterexampleWellFormed(const Grammar &G,
                                           const Counterexample &Ex,
                                           Symbol ConflictTerm = Symbol()) {
  for (const DerivPtr &D : Ex.Derivs1)
    expectDerivationConsistent(G, D);
  for (const DerivPtr &D : Ex.Derivs2)
    expectDerivationConsistent(G, D);

  if (Ex.Unifying) {
    ASSERT_EQ(yieldOf(Ex.Derivs1), yieldOf(Ex.Derivs2))
        << "unifying counterexample yields disagree: "
        << Ex.exampleString1(G) << " vs " << Ex.exampleString2(G);
    // One real derivation per side, same root, different trees.
    DerivPtr D1, D2;
    for (const DerivPtr &D : Ex.Derivs1)
      if (!D->isDot()) {
        ASSERT_EQ(D1, nullptr);
        D1 = D;
      }
    for (const DerivPtr &D : Ex.Derivs2)
      if (!D->isDot()) {
        ASSERT_EQ(D2, nullptr);
        D2 = D;
      }
    ASSERT_NE(D1, nullptr);
    ASSERT_NE(D2, nullptr);
    EXPECT_EQ(D1->symbol(), Ex.Root);
    EXPECT_EQ(D2->symbol(), Ex.Root);
    EXPECT_FALSE(Derivation::equal(D1, D2));
  } else {
    // Shared prefix up to the dot.
    int Dot1 = -1, Dot2 = -1;
    std::vector<Symbol> Y1 = yieldOf(Ex.Derivs1, &Dot1);
    std::vector<Symbol> Y2 = yieldOf(Ex.Derivs2, &Dot2);
    ASSERT_GE(Dot1, 0) << "missing conflict dot in first derivation";
    ASSERT_GE(Dot2, 0) << "missing conflict dot in second derivation";
    ASSERT_LE(Dot1, int(Y1.size()));
    ASSERT_LE(Dot2, int(Y2.size()));
    if (Ex.PrefixShared) {
      ASSERT_EQ(Dot1, Dot2) << "conflict points diverge";
      for (int I = 0; I != Dot1; ++I)
        EXPECT_EQ(Y1[I], Y2[I]) << "prefixes diverge at position " << I;
    }
    if (ConflictTerm.valid() && ConflictTerm != G.eof()) {
      ASSERT_LT(Dot1, int(Y1.size()));
      ASSERT_LT(Dot2, int(Y2.size()));
      EXPECT_EQ(Y1[Dot1], ConflictTerm)
          << "conflict terminal does not follow the dot";
      EXPECT_EQ(Y2[Dot2], ConflictTerm);
    }
  }
}

} // namespace lalrcex

#endif // LALRCEX_TESTS_TESTUTIL_H
