//===- tests/TestUtil.h - Shared test fixtures -----------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_TESTS_TESTUTIL_H
#define LALRCEX_TESTS_TESTUTIL_H

#include "cache/AnalysisCache.h"
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

/// Bytes of \p Reports for byte-identity checks, in report order: each
/// report as the one-entry report blob it would be stored as, under a
/// zero key and without a touched set.
inline std::string reportBytes(const std::vector<ConflictReport> &Reports) {
  std::string Bytes;
  for (const ConflictReport &R : Reports)
    Bytes += cache::serializeReportBlob(Fingerprint128{}, {{R, {}}});
  return Bytes;
}

/// Asserts two automatons over the same grammar are equal state for
/// state: kind, items, kernel sizes, transitions, and every lookahead set.
inline void expectSameAutomaton(const Automaton &MA, const Automaton &MB,
                                const std::string &Context) {
  const Grammar &G = MA.grammar();
  ASSERT_EQ(MA.kind(), MB.kind()) << Context;
  ASSERT_EQ(MA.numStates(), MB.numStates()) << Context;
  for (unsigned S = 0; S != MA.numStates(); ++S) {
    const Automaton::State &SA = MA.state(S), &SB = MB.state(S);
    ASSERT_EQ(SA.Items, SB.Items) << Context << " state " << S;
    ASSERT_EQ(SA.NumKernel, SB.NumKernel) << Context << " state " << S;
    ASSERT_EQ(SA.Transitions, SB.Transitions) << Context << " state " << S;
    ASSERT_EQ(SA.Lookaheads.size(), SB.Lookaheads.size())
        << Context << " state " << S;
    for (size_t I = 0; I != SA.Lookaheads.size(); ++I)
      ASSERT_EQ(SA.Lookaheads[I], SB.Lookaheads[I])
          << Context << " state " << S << " item "
          << G.productionString(SA.Items[I].Prod, int(SA.Items[I].Dot));
  }
}

/// Builds \p G's LALR(1) machine twice — DeRemer–Pennello lookaheads and
/// the reference IndexSet fixpoints (ReferenceLookaheads) — and asserts
/// equal machines.
inline void expectAutomatonMatchesReference(const Grammar &G,
                                            const GrammarAnalysis &A,
                                            const std::string &Context) {
  AutomatonOptions Reference;
  Reference.ReferenceLookaheads = true;
  expectSameAutomaton(Automaton(G, A), Automaton(G, A, Reference), Context);
}

/// Asserts two parse tables are equal: their automatons (as above), every
/// ACTION cell, and the conflict list in order.
inline void expectSameTable(const ParseTable &TA, const ParseTable &TB,
                            const std::string &Context) {
  ASSERT_NO_FATAL_FAILURE(
      expectSameAutomaton(TA.automaton(), TB.automaton(), Context));
  const Automaton &M = TA.automaton();
  for (unsigned S = 0; S != M.numStates(); ++S) {
    for (unsigned T = 0; T != M.grammar().numTerminals(); ++T) {
      Action AA = TA.action(S, Symbol(int32_t(T))),
             AB = TB.action(S, Symbol(int32_t(T)));
      ASSERT_EQ(AA.K, AB.K) << Context << " state " << S << " terminal " << T;
      ASSERT_EQ(AA.Target, AB.Target)
          << Context << " state " << S << " terminal " << T;
    }
  }
  const std::vector<Conflict> &CA = TA.conflicts(), &CB = TB.conflicts();
  ASSERT_EQ(CA.size(), CB.size()) << Context;
  for (size_t I = 0; I != CA.size(); ++I) {
    const Conflict &A = CA[I], &B = CB[I];
    ASSERT_TRUE(A.K == B.K && A.State == B.State && A.Token == B.Token &&
                A.ReduceProd == B.ReduceProd && A.OtherProd == B.OtherProd &&
                A.ShiftItm == B.ShiftItm && A.R == B.R)
        << Context << " conflict " << I << ": "
        << A.describe(M.grammar()) << " vs " << B.describe(M.grammar());
  }
}

/// Asserts two state-item graphs are equal node for node: state, item,
/// lookahead set, forward transition, and the three adjacency rows in
/// order.
inline void expectSameGraph(const StateItemGraph &GA,
                            const StateItemGraph &GB,
                            const std::string &Context) {
  using NodeId = StateItemGraph::NodeId;
  auto rowOf = [](StateItemGraph::NodeRange R) {
    return std::vector<NodeId>(R.begin(), R.end());
  };
  ASSERT_EQ(GA.numNodes(), GB.numNodes()) << Context;
  for (NodeId N = 0; N != GA.numNodes(); ++N) {
    ASSERT_EQ(GA.stateOf(N), GB.stateOf(N)) << Context << " node " << N;
    ASSERT_EQ(GA.itemOf(N), GB.itemOf(N)) << Context << " node " << N;
    ASSERT_EQ(GA.lookahead(N), GB.lookahead(N)) << Context << " node " << N;
    ASSERT_EQ(GA.forwardTransition(N), GB.forwardTransition(N))
        << Context << " node " << N;
    ASSERT_EQ(rowOf(GA.productionSteps(N)), rowOf(GB.productionSteps(N)))
        << Context << " node " << N;
    ASSERT_EQ(rowOf(GA.reverseTransitions(N)),
              rowOf(GB.reverseTransitions(N)))
        << Context << " node " << N;
    ASSERT_EQ(rowOf(GA.reverseProductionSteps(N)),
              rowOf(GB.reverseProductionSteps(N)))
        << Context << " node " << N;
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
