//===- counterexample/LookaheadSensitiveSearch.cpp -------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "counterexample/LookaheadSensitiveSearch.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

using namespace lalrcex;

std::vector<StateItemGraph::NodeId> LssPath::nodes() const {
  std::vector<StateItemGraph::NodeId> Out;
  Out.reserve(Steps.size());
  for (const LssStep &S : Steps)
    Out.push_back(S.Node);
  return Out;
}

//===----------------------------------------------------------------------===//
// One-bit search
//===----------------------------------------------------------------------===//

namespace {

/// A discovered vertex: a node plus one bit of its precise lookahead set
/// (whether the conflict terminal is in it), linked to its BFS parent.
struct BitVertex {
  StateItemGraph::NodeId Node;
  int32_t Parent;
  LssStep::Kind EdgeKind;
  bool HasTerm;
};

} // namespace

std::optional<LssPath> lalrcex::shortestLookaheadSensitivePath(
    const StateItemGraph &Graph, StateItemGraph::NodeId ConflictNode,
    Symbol ConflictTerm, bool PruneToReaching, ResourceGuard *Guard,
    LssStats *Stats, MetricsRegistry *Metrics) {
  ScopedTimer Timer(Metrics, metric::TimeLssNs);
  const Automaton &M = Graph.automaton();
  const Grammar &G = M.grammar();
  const GrammarAnalysis &Analysis = M.analysis();

  if (LALRCEX_FAULT_FIRES(LssPathFailure, 0))
    return std::nullopt;
  if (ConflictNode >= Graph.numNodes())
    throw SearchError("lss path: conflict node out of range");

  // Only explore state-items that can reach the conflict item at all.
  std::vector<bool> Relevant =
      PruneToReaching ? Graph.nodesReaching(ConflictNode)
                      : std::vector<bool>(Graph.numNodes(), true);

  StateItemGraph::NodeId StartNode =
      Graph.nodeFor(M.startState(), Item(G.augmentedProduction(), 0));
  if (StartNode == StateItemGraph::InvalidNode)
    throw SearchError("lss path: start item missing from start state");

  size_t Expanded = 0, Enqueued = 0, Pruned = 0;
  auto finish = [&] {
    if (Metrics) {
      Metrics->add(metric::LssSearches);
      Metrics->add(metric::LssExpanded, Expanded);
      Metrics->add(metric::LssEnqueued, Enqueued);
      Metrics->add(metric::LssDominancePruned, Pruned);
    }
    if (Stats) {
      Stats->Expanded = Expanded;
      Stats->Enqueued = Enqueued;
      Stats->DominancePruned = Pruned;
    }
  };

  if (!Relevant[StartNode]) {
    finish();
    return std::nullopt;
  }

  // The goal asks only whether the conflict terminal t is in L, and both
  // edge maps decide t's membership from t's membership alone: a
  // transition keeps L, and t ∈ followL(A -> a . B b, L) exactly when
  // t ∈ FIRST(b), or b is nullable and t ∈ L. So a vertex carries one bit
  // of L, and at one node a vertex with the bit set dominates one without
  // it. Admitted[Key] records the best bit admitted at a frontier key:
  // 0 nothing, 1 bit clear, 2 bit set. A candidate is rejected when its
  // key already holds its bit or the set bit, so each key admits at most
  // two vertices. DESIGN.md §5e proves this admits exactly the bit
  // projections of the vertices the set-valued BFS
  // (shortestLookaheadSensitivePathReference) keeps first at their node,
  // in the same order and with the same parents, so both return the same
  // path and expand the same nodes before the goal.
  //
  // A production-step family — the dot-0 nodes (s, A -> .g) of one state
  // and nonterminal, i.e. one productionSteps() row — is keyed by its
  // row's first node. Nothing but production steps leads into a dot-0
  // node (S' -> .S is never a step target), and every step into (s, A)
  // offers the same bit to each relevant member, so one probe answers for
  // the whole row.
  std::vector<uint8_t> Admitted(Graph.numNodes(), 0);
  auto admit = [&](StateItemGraph::NodeId Key, bool HasTerm) {
    uint8_t Want = HasTerm ? 2 : 1;
    if (Admitted[Key] >= Want)
      return false;
    Admitted[Key] = Want;
    return true;
  };

  // Vertices are appended in discovery order, which is the BFS's FIFO
  // order, so the vertex array is its own queue.
  std::vector<BitVertex> Vertices;
  auto push = [&](StateItemGraph::NodeId Node, int32_t Parent,
                  LssStep::Kind Kind, bool HasTerm) {
    Vertices.push_back(BitVertex{Node, Parent, Kind, HasTerm});
    ++Enqueued;
  };

  // No edge enters the start item, so its key is never probed.
  push(StartNode, -1, LssStep::Start, ConflictTerm == G.eof());

  int32_t Goal = -1;
  for (size_t VI = 0; VI != Vertices.size(); ++VI) {
    // The BFS is polynomial and fast, but a cancelled or exhausted guard
    // must still be able to stop it (the "never hang" contract).
    if (Guard && Guard->step() != GuardStop::None) {
      finish();
      return std::nullopt;
    }
    ++Expanded;
    const BitVertex V = Vertices[VI];

    // Goal test.
    if (V.Node == ConflictNode && V.HasTerm) {
      Goal = int32_t(VI);
      break;
    }

    // Transition edge: L, and so its bit, is preserved.
    StateItemGraph::NodeId Succ = Graph.forwardTransition(V.Node);
    if (Succ != StateItemGraph::InvalidNode && Relevant[Succ]) {
      if (admit(Succ, V.HasTerm))
        push(Succ, int32_t(VI), LssStep::Transition, V.HasTerm);
      else
        ++Pruned;
    }

    // Production-step edges: L becomes followL(item) (paper §4), whose bit
    // is two memoized table lookups, probed once against the family's key.
    const Item &Itm = Graph.itemOf(V.Node);
    Symbol Next = Itm.afterDot(G);
    if (Next.valid() && G.isNonterminal(Next)) {
      StateItemGraph::NodeRange Steps = Graph.productionSteps(V.Node);
      size_t Members = 0;
      for (StateItemGraph::NodeId Step : Steps)
        Members += Relevant[Step];
      if (Members == 0)
        continue;
      bool HasTerm =
          Analysis.suffixCanBeginWith(Itm.Prod, Itm.Dot + 1, ConflictTerm) ||
          (V.HasTerm && Analysis.suffixNullable(Itm.Prod, Itm.Dot + 1));
      if (!admit(*Steps.begin(), HasTerm)) {
        Pruned += Members;
        continue;
      }
      for (StateItemGraph::NodeId Step : Steps)
        if (Relevant[Step])
          push(Step, int32_t(VI), LssStep::Production, HasTerm);
    }
  }

  finish();
  if (Goal < 0)
    return std::nullopt;

  // Rebuild the precise lookahead sets along the path: {$} at the start,
  // kept by transitions, followL of the previous item after production
  // steps.
  LssPath Path;
  for (int32_t VI = Goal; VI >= 0; VI = Vertices[VI].Parent)
    Path.Steps.push_back(
        LssStep{Vertices[VI].Node, Vertices[VI].EdgeKind, IndexSet()});
  std::reverse(Path.Steps.begin(), Path.Steps.end());
  Path.Steps[0].Lookaheads =
      IndexSet::singleton(G.numTerminals(), G.eof().id());
  for (size_t I = 1; I != Path.Steps.size(); ++I) {
    const LssStep &Prev = Path.Steps[I - 1];
    LssStep &Step = Path.Steps[I];
    if (Step.EdgeKind == LssStep::Transition) {
      Step.Lookaheads = Prev.Lookaheads;
    } else {
      const Item &Itm = Graph.itemOf(Prev.Node);
      Step.Lookaheads = Analysis.firstOfSequence(G.production(Itm.Prod).Rhs,
                                                 Itm.Dot + 1, &Prev.Lookaheads);
    }
  }
  return Path;
}

//===----------------------------------------------------------------------===//
// Reference implementation (set-valued BFS), retained as the oracle of the
// equivalence tests and the benchmarks' baseline.
//===----------------------------------------------------------------------===//

namespace {

/// A discovered vertex of the lookahead-sensitive graph, linked to its BFS
/// parent for path reconstruction.
struct Vertex {
  StateItemGraph::NodeId Node;
  IndexSet Lookaheads;
  int Parent;
  LssStep::Kind EdgeKind;
};

} // namespace

std::optional<LssPath> lalrcex::shortestLookaheadSensitivePathReference(
    const StateItemGraph &Graph, StateItemGraph::NodeId ConflictNode,
    Symbol ConflictTerm, bool PruneToReaching, ResourceGuard *Guard) {
  const Automaton &M = Graph.automaton();
  const Grammar &G = M.grammar();
  const GrammarAnalysis &Analysis = M.analysis();

  if (LALRCEX_FAULT_FIRES(LssPathFailure, 0))
    return std::nullopt;
  if (ConflictNode >= Graph.numNodes())
    throw SearchError("lss path: conflict node out of range");

  // Only explore state-items that can reach the conflict item at all.
  std::vector<bool> Relevant =
      PruneToReaching ? Graph.nodesReaching(ConflictNode)
                      : std::vector<bool>(Graph.numNodes(), true);

  StateItemGraph::NodeId StartNode =
      Graph.nodeFor(M.startState(), Item(G.augmentedProduction(), 0));
  if (StartNode == StateItemGraph::InvalidNode)
    throw SearchError("lss path: start item missing from start state");
  if (!Relevant[StartNode])
    return std::nullopt;

  std::vector<Vertex> Vertices;
  // Visited lookahead sets per node, compared exactly (hashing alone would
  // risk dropping a genuinely new vertex on collision).
  std::unordered_map<StateItemGraph::NodeId, std::vector<IndexSet>> Visited;
  std::deque<int> Work;

  auto enqueue = [&](StateItemGraph::NodeId Node, IndexSet L, int Parent,
                     LssStep::Kind Kind) {
    std::vector<IndexSet> &Seen = Visited[Node];
    for (const IndexSet &Prev : Seen)
      if (Prev == L)
        return;
    Seen.push_back(L);
    Vertices.push_back(Vertex{Node, std::move(L), Parent, Kind});
    Work.push_back(int(Vertices.size()) - 1);
  };

  IndexSet StartL(G.numTerminals());
  StartL.insert(G.eof().id());
  enqueue(StartNode, std::move(StartL), -1, LssStep::Start);

  int Goal = -1;
  while (!Work.empty() && Goal < 0) {
    // The BFS is polynomial and fast, but a cancelled or exhausted guard
    // must still be able to stop it (the "never hang" contract).
    if (Guard && Guard->step() != GuardStop::None)
      return std::nullopt;
    int VI = Work.front();
    Work.pop_front();
    // Note: Vertices may reallocate inside the loop; index anew each time.
    StateItemGraph::NodeId N = Vertices[VI].Node;

    // Goal test.
    if (N == ConflictNode &&
        Vertices[VI].Lookaheads.contains(ConflictTerm.id())) {
      Goal = VI;
      break;
    }

    // Transition edge: the precise lookahead set is preserved.
    StateItemGraph::NodeId Succ = Graph.forwardTransition(N);
    if (Succ != StateItemGraph::InvalidNode && Relevant[Succ]) {
      IndexSet L = Vertices[VI].Lookaheads;
      enqueue(Succ, std::move(L), VI, LssStep::Transition);
    }

    // Production-step edges: L becomes followL(item) (paper §4).
    const Item &Itm = Graph.itemOf(N);
    Symbol Next = Itm.afterDot(G);
    if (Next.valid() && G.isNonterminal(Next)) {
      const Production &P = G.production(Itm.Prod);
      IndexSet Follow = Analysis.firstOfSequence(P.Rhs, Itm.Dot + 1,
                                                 &Vertices[VI].Lookaheads);
      for (StateItemGraph::NodeId Step : Graph.productionSteps(N)) {
        if (!Relevant[Step])
          continue;
        enqueue(Step, Follow, VI, LssStep::Production);
      }
    }
  }

  if (Goal < 0)
    return std::nullopt;

  LssPath Path;
  for (int VI = Goal; VI >= 0; VI = Vertices[VI].Parent)
    Path.Steps.push_back(LssStep{Vertices[VI].Node, Vertices[VI].EdgeKind,
                                 Vertices[VI].Lookaheads});
  std::reverse(Path.Steps.begin(), Path.Steps.end());
  return Path;
}
