//===- counterexample/NonunifyingBuilder.cpp -------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "counterexample/NonunifyingBuilder.h"

#include "support/Budget.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <deque>
#include <new>
#include <unordered_map>
#include <unordered_set>

using namespace lalrcex;

MinimalDerivationChoices::MinimalDerivationChoices(const Grammar &G) {
  // Minimal epsilon-derivation sizes: a fixpoint over nullable productions.
  const unsigned Inf = GrammarAnalysis::Infinite;
  EpsCost.assign(G.numSymbols(), Inf);
  EpsProd.assign(G.numSymbols(), Inf);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned P = 0, E = G.numProductions(); P != E; ++P) {
      const Production &Prod = G.production(P);
      unsigned Sum = 1;
      bool Known = true;
      for (Symbol S : Prod.Rhs) {
        if (EpsCost[S.id()] == Inf) {
          Known = false;
          break;
        }
        Sum += EpsCost[S.id()];
      }
      if (Known && Sum < EpsCost[Prod.Lhs.id()]) {
        EpsCost[Prod.Lhs.id()] = Sum;
        EpsProd[Prod.Lhs.id()] = P;
        Changed = true;
      }
    }
  }
}

void MinimalDerivationChoices::beginningWith(
    const Grammar &G, Symbol T, std::vector<unsigned> &Cost,
    std::vector<BeginChoice> &Best) const {
  // Minimal begins-with-T derivation sizes per symbol (fixpoint).
  const unsigned Inf = GrammarAnalysis::Infinite;
  Cost.assign(G.numSymbols(), Inf);
  Best.assign(G.numSymbols(), BeginChoice{});
  Cost[T.id()] = 1;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned P = 0, E = G.numProductions(); P != E; ++P) {
      const Production &Prod = G.production(P);
      unsigned Prefix = 1; // the node itself
      for (unsigned J = 0, JE = unsigned(Prod.Rhs.size()); J != JE; ++J) {
        Symbol S = Prod.Rhs[J];
        if (Cost[S.id()] != Inf) {
          unsigned Total =
              Prefix + Cost[S.id()] + (unsigned(Prod.Rhs.size()) - J - 1);
          if (Total < Cost[Prod.Lhs.id()]) {
            Cost[Prod.Lhs.id()] = Total;
            Best[Prod.Lhs.id()] = BeginChoice{P, J};
            Changed = true;
          }
        }
        if (EpsCost[S.id()] == Inf)
          break;
        Prefix += EpsCost[S.id()];
      }
    }
  }
}

NonunifyingBuilder::NonunifyingBuilder(const StateItemGraph &Graph)
    : Graph(Graph), G(Graph.grammar()),
      Analysis(Graph.automaton().analysis()), Min(G) {}

DerivPtr NonunifyingBuilder::emptyDerivation(Symbol N) const {
  if (!G.isNonterminal(N) || !Analysis.isNullable(N))
    throw SearchError(
        "nonunifying builder: epsilon derivation of a non-nullable symbol");
  unsigned P = Min.EpsProd[N.id()];
  if (P == GrammarAnalysis::Infinite)
    throw SearchError("nonunifying builder: missing epsilon production");
  std::vector<DerivPtr> Children;
  for (Symbol S : G.production(P).Rhs)
    Children.push_back(emptyDerivation(S));
  return Derivation::node(N, P, std::move(Children));
}

DerivPtr NonunifyingBuilder::derivationBeginningWith(Symbol N,
                                                     Symbol T) const {
  if (!G.isTerminal(T))
    throw SearchError("nonunifying builder: continuation is not a terminal");
  if (N == T)
    return Derivation::leaf(T);
  if (!G.isNonterminal(N) || !Analysis.first(N).contains(T.id()))
    throw SearchError(
        "nonunifying builder: terminal cannot begin the continuation");

  std::vector<unsigned> Cost;
  std::vector<MinimalDerivationChoices::BeginChoice> Best;
  Min.beginningWith(G, T, Cost, Best);

  // Reconstruct greedily; costs strictly decrease into subproblems.
  struct Rec {
    const NonunifyingBuilder &B;
    const std::vector<MinimalDerivationChoices::BeginChoice> &Best;
    Symbol T;

    DerivPtr operator()(Symbol N) const {
      if (N == T)
        return Derivation::leaf(T);
      const MinimalDerivationChoices::BeginChoice &C = Best[N.id()];
      if (C.Prod == GrammarAnalysis::Infinite)
        throw SearchError(
            "nonunifying builder: unreconstructible continuation");
      const Production &Prod = B.G.production(C.Prod);
      std::vector<DerivPtr> Children;
      for (unsigned J = 0, JE = unsigned(Prod.Rhs.size()); J != JE; ++J) {
        if (J < C.Pos)
          Children.push_back(B.emptyDerivation(Prod.Rhs[J]));
        else if (J == C.Pos)
          Children.push_back((*this)(Prod.Rhs[J]));
        else
          Children.push_back(Derivation::leaf(Prod.Rhs[J]));
      }
      return Derivation::node(N, C.Prod, std::move(Children));
    }
  };
  return Rec{*this, Best, T}(N);
}

std::optional<std::vector<DerivPtr>>
NonunifyingBuilder::replayAndComplete(const std::vector<LssStep> &Steps,
                                      Symbol ConflictTerm) const {
  struct Frame {
    unsigned Prod;
    std::vector<DerivPtr> Children;
    unsigned RealCount = 0; // children excluding dot markers
  };
  std::vector<Frame> Frames;

  for (const LssStep &Step : Steps) {
    const Item &Itm = Graph.itemOf(Step.Node);
    switch (Step.EdgeKind) {
    case LssStep::Start:
    case LssStep::Production:
      Frames.push_back(Frame{Itm.Prod, {}, 0});
      break;
    case LssStep::Transition: {
      if (Frames.empty() || Frames.back().Prod != Itm.Prod ||
          Frames.back().RealCount + 1 != Itm.Dot)
        throw SearchError(
            "nonunifying builder: transition inconsistent with open frame");
      Symbol S = Itm.beforeDot(G);
      Frames.back().Children.push_back(Derivation::leaf(S));
      ++Frames.back().RealCount;
      break;
    }
    }
  }
  if (Frames.empty())
    return std::nullopt;

  // Place the conflict dot. For a reduce item, first complete and wrap its
  // production; for a shift item the dot lands inside the current frame,
  // right before the conflict terminal.
  const Item &EndItem = Graph.itemOf(Steps.back().Node);
  if (EndItem.atEnd(G)) {
    Frame Top = std::move(Frames.back());
    Frames.pop_back();
    if (Frames.empty())
      return std::nullopt; // conflict on the augmented production
    const Production &P = G.production(Top.Prod);
    if (Top.RealCount != P.Rhs.size())
      throw SearchError("nonunifying builder: reduce item frame incomplete");
    DerivPtr D = Derivation::node(P.Lhs, Top.Prod, std::move(Top.Children));
    Frames.back().Children.push_back(std::move(D));
    ++Frames.back().RealCount;
  }
  Frames.back().Children.push_back(Derivation::dot());

  // Complete every open frame. The first symbols after the dot must derive
  // a string beginning with the conflict terminal; everything later stays
  // as unexpanded leaves (paper §3.2: no more concrete than necessary).
  bool NeedCont = true;
  while (true) {
    Frame F = std::move(Frames.back());
    Frames.pop_back();
    const Production &P = G.production(F.Prod);
    unsigned J = F.RealCount;
    if (NeedCont) {
      for (unsigned JE = unsigned(P.Rhs.size()); J != JE; ++J) {
        Symbol S = P.Rhs[J];
        if (S == ConflictTerm ||
            (G.isNonterminal(S) &&
             Analysis.first(S).contains(ConflictTerm.id()))) {
          F.Children.push_back(derivationBeginningWith(S, ConflictTerm));
          NeedCont = false;
          ++J;
          break;
        }
        if (G.isNonterminal(S) && Analysis.isNullable(S)) {
          F.Children.push_back(emptyDerivation(S));
          continue;
        }
        // The conflict terminal cannot appear here; the precise lookahead
        // tracking should have prevented this.
        return std::nullopt;
      }
    }
    for (unsigned JE = unsigned(P.Rhs.size()); J != JE; ++J)
      F.Children.push_back(Derivation::leaf(P.Rhs[J]));

    if (Frames.empty()) {
      // F is the augmented production's frame; its children are the final
      // derivation list. The conflict terminal must have been placed,
      // unless the conflict is on end-of-input.
      if (NeedCont && ConflictTerm != G.eof())
        return std::nullopt;
      return std::move(F.Children);
    }
    DerivPtr D = Derivation::node(P.Lhs, F.Prod, std::move(F.Children));
    Frames.back().Children.push_back(std::move(D));
    ++Frames.back().RealCount;
  }
}

std::optional<std::vector<LssStep>>
NonunifyingBuilder::bridgeToOtherItem(const LssPath &Path,
                                      StateItemGraph::NodeId OtherNode,
                                      Symbol ConflictTerm) const {
  const std::vector<LssStep> &Steps = Path.Steps;

  // Transition counts per step and the step index of each transition.
  std::vector<unsigned> TransCount(Steps.size(), 0);
  std::vector<unsigned> TransStep; // 1-indexed via TransStep[k-1]
  for (size_t I = 1; I < Steps.size(); ++I) {
    TransCount[I] = TransCount[I - 1];
    if (Steps[I].EdgeKind == LssStep::Transition) {
      ++TransCount[I];
      TransStep.push_back(unsigned(I));
    }
  }
  const unsigned TotalTrans = unsigned(TransStep.size());

  // Goal lookup: (node, transition count) -> path step index.
  auto key = [](StateItemGraph::NodeId N, unsigned K, bool Sat) {
    return (uint64_t(Sat) << 63) | (uint64_t(N) << 32) | K;
  };
  std::unordered_map<uint64_t, unsigned> OnPath;
  for (size_t I = 0; I < Steps.size(); ++I)
    OnPath.emplace(key(Steps[I].Node, TransCount[I], false), unsigned(I));

  // Whether, at path position P, the conflict terminal can follow the
  // spliced-in derivation. When the bridge leaves the splice via a
  // production step, completion resumes in P's frame right after the
  // expanded nonterminal; when it leaves via a transition (continuing P's
  // own production to the conflict item), P's production completes
  // entirely, so the terminal must be viable in its tracked precise
  // lookahead. Interior bridge frames were already checked by the
  // satisfaction guard.
  auto pathAdmits = [&](unsigned P, LssStep::Kind FirstEdge) {
    const Item &Itm = Graph.itemOf(Steps[P].Node);
    const Production &Prod = G.production(Itm.Prod);
    size_t From = FirstEdge == LssStep::Production ? Itm.Dot + 1
                                                   : Prod.Rhs.size();
    return Analysis.suffixCanBeginWith(Itm.Prod, unsigned(From), ConflictTerm,
                                       &Steps[P].Lookaheads);
  };

  // Vertices carry a "satisfied" bit: whether the conflict terminal is
  // already placeable inside the frames opened so far. Reverse production
  // steps taken while unsatisfied must keep the terminal reachable: the
  // source item's remainder either begins with it (satisfying it) or is
  // nullable (deferring to an outer frame).
  struct Vertex {
    StateItemGraph::NodeId Node;
    unsigned K;   // transitions still unmatched (counted from path start)
    bool Sat;
    int Parent;   // vertex index closer to OtherNode
    LssStep::Kind EdgeToParent; // kind of the forward edge Node->Parent
  };
  std::vector<Vertex> Vertices;
  std::unordered_set<uint64_t> Visited;
  std::deque<int> Work;

  auto enqueue = [&](StateItemGraph::NodeId N, unsigned K, bool Sat,
                     int Parent, LssStep::Kind Kind) {
    if (!Visited.insert(key(N, K, Sat)).second)
      return;
    Vertices.push_back(Vertex{N, K, Sat, Parent, Kind});
    Work.push_back(int(Vertices.size()) - 1);
  };

  {
    // A shift item places the conflict terminal inside its own
    // production; a reduce item (reduce/reduce conflicts) relies on outer
    // frames.
    const Item &OtherItm = Graph.itemOf(OtherNode);
    bool Sat0 =
        Analysis.suffixCanBeginWith(OtherItm.Prod, OtherItm.Dot, ConflictTerm);
    enqueue(OtherNode, TotalTrans, Sat0, -1, LssStep::Start);
  }

  while (!Work.empty()) {
    int VI = Work.front();
    Work.pop_front();
    Vertex V = Vertices[VI];

    auto It = OnPath.find(key(V.Node, V.K, false));
    if (It != OnPath.end() &&
        (V.Sat || pathAdmits(It->second, V.EdgeToParent))) {
      // Splice: path prefix up to the shared vertex, then the chain back
      // out to OtherNode (parent links already point forward).
      std::vector<LssStep> Out(Steps.begin(), Steps.begin() + It->second + 1);
      for (int Cur = VI; Vertices[Cur].Parent >= 0;
           Cur = Vertices[Cur].Parent) {
        const Vertex &C = Vertices[Cur];
        Out.push_back(LssStep{Vertices[C.Parent].Node, C.EdgeToParent,
                              IndexSet(G.numTerminals())});
      }
      return Out;
    }

    // Reverse production steps stay within the same state and transition
    // count; while unsatisfied they must keep the conflict terminal
    // placeable in the new outer frame.
    for (StateItemGraph::NodeId Src : Graph.reverseProductionSteps(V.Node)) {
      bool Sat = V.Sat;
      if (!Sat) {
        const Item &SrcItm = Graph.itemOf(Src);
        if (Analysis.suffixCanBeginWith(SrcItm.Prod, SrcItm.Dot + 1,
                                        ConflictTerm))
          Sat = true;
        else if (!Analysis.suffixNullable(SrcItm.Prod, SrcItm.Dot + 1))
          continue; // the terminal could never follow here
      }
      enqueue(Src, V.K, Sat, VI, LssStep::Production);
    }

    // Reverse transitions must match the path's K-th transition: same
    // symbol, and a source in the same state as the path's source.
    if (V.K > 0) {
      unsigned Q = TransStep[V.K - 1];
      StateItemGraph::NodeId PathFrom = Steps[Q - 1].Node;
      Symbol Sym = Graph.transitionSymbol(PathFrom);
      const Item &Itm = Graph.itemOf(V.Node);
      if (Itm.Dot > 0 && Itm.beforeDot(G) == Sym) {
        for (StateItemGraph::NodeId M : Graph.reverseTransitions(V.Node))
          if (Graph.stateOf(M) == Graph.stateOf(PathFrom))
            enqueue(M, V.K - 1, V.Sat, VI, LssStep::Transition);
      }
    }
  }
  return std::nullopt;
}

std::optional<Counterexample>
NonunifyingBuilder::build(const LssPath &Path,
                          StateItemGraph::NodeId OtherNode,
                          Symbol ConflictTerm) const {
  if (LALRCEX_FAULT_FIRES(NonunifyingBadAlloc, 0))
    throw std::bad_alloc();
  if (LALRCEX_FAULT_FIRES(NonunifyingError, 0))
    throw SearchError("injected nonunifying builder fault");
  if (Path.Steps.empty() || OtherNode >= Graph.numNodes())
    throw SearchError("nonunifying builder: malformed conflict inputs");
  std::optional<std::vector<DerivPtr>> Reduce =
      replayAndComplete(Path.Steps, ConflictTerm);
  if (!Reduce)
    return std::nullopt;

  Counterexample C;
  C.Unifying = false;
  C.Root = G.startSymbol();
  C.Derivs1 = std::move(*Reduce);

  std::optional<std::vector<LssStep>> Bridge =
      bridgeToOtherItem(Path, OtherNode, ConflictTerm);
  if (Bridge) {
    if (std::optional<std::vector<DerivPtr>> Other =
            replayAndComplete(*Bridge, ConflictTerm)) {
      C.Derivs2 = std::move(*Other);
      return C;
    }
  }

  // No context following the reduce path's states keeps the conflict
  // terminal viable for the second item. Another prefix may still admit
  // both actions (the conflict need not be an artifact of LALR state
  // merging), but none was found from this path. Derive the second item
  // in its own lookahead-sensitive context instead and mark the prefixes
  // as distinct.
  std::optional<LssPath> OtherPath =
      shortestLookaheadSensitivePath(Graph, OtherNode, ConflictTerm);
  if (!OtherPath)
    return std::nullopt;
  std::optional<std::vector<DerivPtr>> Other =
      replayAndComplete(OtherPath->Steps, ConflictTerm);
  if (!Other)
    return std::nullopt;
  C.PrefixShared = false;
  C.Derivs2 = std::move(*Other);
  return C;
}
