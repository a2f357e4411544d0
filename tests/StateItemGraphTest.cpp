//===- tests/StateItemGraphTest.cpp - state-item graph tests ---*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "counterexample/StateItemGraph.h"

#include "RandomGrammar.h"
#include "corpus/Corpus.h"
#include "grammar/GrammarParser.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace lalrcex;

namespace {

struct Built {
  Grammar G;
  GrammarAnalysis A;
  Automaton M;
  StateItemGraph Graph;

  explicit Built(Grammar InG) : G(std::move(InG)), A(G), M(G, A), Graph(M) {}
};

TEST(StateItemGraphTest, NodeCountMatchesItemCount) {
  Built B(loadCorpusGrammar("figure1"));
  unsigned Total = 0;
  for (unsigned S = 0; S != B.M.numStates(); ++S)
    Total += unsigned(B.M.state(S).Items.size());
  EXPECT_EQ(B.Graph.numNodes(), Total);
}

TEST(StateItemGraphTest, ForwardAndReverseTransitionsAgree) {
  Built B(loadCorpusGrammar("figure7"));
  for (StateItemGraph::NodeId N = 0; N != B.Graph.numNodes(); ++N) {
    StateItemGraph::NodeId F = B.Graph.forwardTransition(N);
    if (F == StateItemGraph::InvalidNode) {
      EXPECT_TRUE(B.Graph.itemOf(N).atEnd(B.G));
      continue;
    }
    // The successor item is the advanced item.
    EXPECT_EQ(B.Graph.itemOf(F), B.Graph.itemOf(N).advanced());
    // Reverse edge present.
    const auto &Rev = B.Graph.reverseTransitions(F);
    EXPECT_NE(std::find(Rev.begin(), Rev.end(), N), Rev.end());
  }
}

TEST(StateItemGraphTest, ProductionStepsWithinState) {
  Built B(loadCorpusGrammar("figure1"));
  for (StateItemGraph::NodeId N = 0; N != B.Graph.numNodes(); ++N) {
    Symbol Next = B.Graph.itemOf(N).afterDot(B.G);
    const auto &Steps = B.Graph.productionSteps(N);
    if (!Next.valid() || B.G.isTerminal(Next)) {
      EXPECT_TRUE(Steps.empty());
      continue;
    }
    EXPECT_EQ(Steps.size(), B.G.productionsOf(Next).size());
    for (StateItemGraph::NodeId S : Steps) {
      EXPECT_EQ(B.Graph.stateOf(S), B.Graph.stateOf(N));
      EXPECT_EQ(B.Graph.itemOf(S).Dot, 0u);
      EXPECT_EQ(B.G.production(B.Graph.itemOf(S).Prod).Lhs, Next);
      // Reverse edge present.
      const auto &Rev = B.Graph.reverseProductionSteps(S);
      EXPECT_NE(std::find(Rev.begin(), Rev.end(), N), Rev.end());
    }
  }
}

TEST(StateItemGraphTest, EveryNodeReachesSomeConflictOrNot) {
  // nodesReaching is a sound over-approximation check: the target reaches
  // itself, and anything with a forward edge to a reaching node reaches.
  Built B(loadCorpusGrammar("figure3"));
  StateItemGraph::NodeId Target = B.Graph.numNodes() - 1;
  std::vector<bool> R = B.Graph.nodesReaching(Target);
  EXPECT_TRUE(R[Target]);
  for (StateItemGraph::NodeId N = 0; N != B.Graph.numNodes(); ++N) {
    StateItemGraph::NodeId F = B.Graph.forwardTransition(N);
    if (F != StateItemGraph::InvalidNode && R[F]) {
      EXPECT_TRUE(R[N]);
    }
    for (StateItemGraph::NodeId S : B.Graph.productionSteps(N)) {
      if (R[S]) {
        EXPECT_TRUE(R[N]);
      }
    }
  }
}

/// Checks every row of the graph built over \p M against a brute-force
/// derivation from the automaton alone: node N of state S is item
/// N - base(S), where base is the prefix sum of item counts; the forward
/// target is the advanced item's index in the goto state; production
/// steps are the (P, 0) nodes of the same state in productionsOf order;
/// and each reverse row lists its sources in ascending order.
void expectRowsMatchBruteForce(const Automaton &M, const std::string &Context) {
  using NodeId = StateItemGraph::NodeId;
  const Grammar &G = M.grammar();
  StateItemGraph Graph(M);
  std::vector<NodeId> Base(M.numStates() + 1, 0);
  for (unsigned S = 0; S != M.numStates(); ++S)
    Base[S + 1] = Base[S] + NodeId(M.state(S).Items.size());
  const NodeId NumNodes = Base[M.numStates()];
  ASSERT_EQ(Graph.numNodes(), NumNodes) << Context;

  std::vector<NodeId> Fwd(NumNodes, StateItemGraph::InvalidNode);
  std::vector<std::vector<NodeId>> Prod(NumNodes), RevT(NumNodes),
      RevP(NumNodes);
  for (unsigned S = 0; S != M.numStates(); ++S) {
    const Automaton::State &St = M.state(S);
    for (unsigned I = 0; I != St.Items.size(); ++I) {
      NodeId N = Base[S] + I;
      ASSERT_EQ(Graph.stateOf(N), S) << Context;
      ASSERT_EQ(Graph.itemOf(N), St.Items[I]) << Context;
      Symbol Next = St.Items[I].afterDot(G);
      if (!Next.valid())
        continue;
      int T = M.transition(S, Next);
      ASSERT_GE(T, 0) << Context;
      int Idx = M.state(unsigned(T)).indexOfItem(St.Items[I].advanced());
      ASSERT_GE(Idx, 0) << Context;
      Fwd[N] = Base[unsigned(T)] + unsigned(Idx);
      if (G.isNonterminal(Next))
        for (unsigned P : G.productionsOf(Next)) {
          int J = St.indexOfItem(Item(P, 0));
          ASSERT_GE(J, 0) << Context;
          Prod[N].push_back(Base[S] + unsigned(J));
        }
    }
  }
  for (NodeId N = 0; N != NumNodes; ++N) {
    if (Fwd[N] != StateItemGraph::InvalidNode)
      RevT[Fwd[N]].push_back(N);
    for (NodeId Step : Prod[N])
      RevP[Step].push_back(N);
  }

  auto rowOf = [](StateItemGraph::NodeRange R) {
    return std::vector<NodeId>(R.begin(), R.end());
  };
  for (NodeId N = 0; N != NumNodes; ++N) {
    ASSERT_EQ(Graph.forwardTransition(N), Fwd[N]) << Context << " node " << N;
    ASSERT_EQ(rowOf(Graph.productionSteps(N)), Prod[N])
        << Context << " node " << N;
    ASSERT_EQ(rowOf(Graph.reverseTransitions(N)), RevT[N])
        << Context << " node " << N;
    ASSERT_EQ(rowOf(Graph.reverseProductionSteps(N)), RevP[N])
        << Context << " node " << N;
  }
}

TEST(StateItemGraphTest, RowsMatchBruteForceOnCorpus) {
  for (const CorpusEntry &E : corpus()) {
    Grammar G = loadCorpusGrammar(E.Name);
    GrammarAnalysis A(G);
    for (AutomatonKind Kind : {AutomatonKind::Lalr1, AutomatonKind::Canonical}) {
      Automaton M(G, A, Kind);
      expectRowsMatchBruteForce(M, E.Name);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

TEST(StateItemGraphTest, RowsMatchBruteForceOnExampleGrammars) {
  for (const char *Name : {"ansi_c.y", "sql.y"}) {
    std::ifstream In(std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/" + Name,
                     std::ios::binary);
    ASSERT_TRUE(In) << Name;
    std::stringstream Buf;
    Buf << In.rdbuf();
    GrammarParseResult R = parseGrammar(Buf.str());
    ASSERT_TRUE(R.ok()) << Name;
    GrammarAnalysis A(*R.G);
    Automaton M(*R.G, A);
    expectRowsMatchBruteForce(M, Name);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(StateItemGraphTest, RowsMatchBruteForceOnRandomGrammars) {
  for (uint64_t Seed = 0; Seed != 60; ++Seed) {
    std::string Text = lalrcex::testing::randomGrammarText(
        Seed, 4 + unsigned(Seed % 5), 3 + unsigned(Seed % 4));
    std::optional<Grammar> G = parseGrammarText(Text);
    ASSERT_TRUE(G) << Text;
    GrammarAnalysis A(*G);
    for (AutomatonKind Kind : {AutomatonKind::Lalr1, AutomatonKind::Canonical}) {
      Automaton M(*G, A, Kind);
      expectRowsMatchBruteForce(M, "random seed " + std::to_string(Seed));
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

TEST(StateItemGraphTest, StartItemHasNode) {
  Built B(loadCorpusGrammar("figure1"));
  StateItemGraph::NodeId N =
      B.Graph.nodeFor(0, Item(B.G.augmentedProduction(), 0));
  ASSERT_NE(N, StateItemGraph::InvalidNode);
  EXPECT_EQ(B.Graph.stateOf(N), 0u);
  EXPECT_FALSE(B.Graph.describe(N).empty());
}

} // namespace
