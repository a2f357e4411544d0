//===- counterexample/StateItemGraph.cpp ----------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "counterexample/StateItemGraph.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace lalrcex;

std::vector<uint32_t> GraphTouchRecorder::sortedNodes() const {
  std::vector<uint32_t> Out = Touched;
  std::sort(Out.begin(), Out.end());
  return Out;
}

namespace {

/// Fills the CSR \p Begin / \p Data with the transpose of the edges
/// \p ForEachEdge enumerates (it calls its argument with (source, target),
/// sources ascending) by a counting sort, so each row lists its sources
/// in ascending order.
template <typename ForEachEdgeFn>
void transpose(size_t NumNodes, std::vector<uint32_t> &Begin,
               std::vector<uint32_t> &Data, ForEachEdgeFn ForEachEdge) {
  Begin.assign(NumNodes + 1, 0);
  ForEachEdge([&](uint32_t, uint32_t To) { ++Begin[To + 1]; });
  for (size_t N = 0; N != NumNodes; ++N)
    Begin[N + 1] += Begin[N];
  Data.resize(Begin[NumNodes]);
  std::vector<uint32_t> Cursor(Begin.begin(), Begin.end() - 1);
  ForEachEdge([&](uint32_t From, uint32_t To) { Data[Cursor[To]++] = From; });
}

} // namespace

StateItemGraph::StateItemGraph(const Automaton &M, MetricsRegistry *Metrics,
                               TraceRecorder *Trace)
    : M(M), Fwd(M.successors().data()) {
  static_assert(InvalidNode == Automaton::NoSuccessor,
                "a reduce item's forward node is its missing successor");
  ScopedTimer Timer(Metrics, metric::TimeGraphBuildNs);
  TraceSpan Span(Trace, "graph-build");
  const Grammar &G = M.grammar();

  // Nodes are the automaton's item numbers: per state, in the state's item
  // order. Forward edges are the automaton's successors.
  const NodeId NumNodes = M.numItems();
  Nodes.reserve(NumNodes);
  for (unsigned S = 0, SE = M.numStates(); S != SE; ++S) {
    const Automaton::State &St = M.state(S);
    for (unsigned I = 0, IE = unsigned(St.Items.size()); I != IE; ++I)
      Nodes.push_back(NodeData{S, I, St.Items[I]});
  }

  // Production-step rows, state by state. A dot-0 item is always a
  // closure item (S' -> . S aside, which no right-hand side mentions), so
  // stamping each production's dot-0 node per state answers every
  // production-step target of the state.
  ProdSteps.Begin.reserve(NumNodes + 1);
  ProdSteps.Begin.push_back(0);
  std::vector<NodeId> DotZero(G.numProductions(), InvalidNode);
  for (unsigned S = 0, SE = M.numStates(); S != SE; ++S) {
    const Automaton::State &St = M.state(S);
    const NodeId Base = M.firstItem(S);
    for (unsigned I = 0, IE = unsigned(St.Items.size()); I != IE; ++I)
      if (St.Items[I].Dot == 0)
        DotZero[St.Items[I].Prod] = Base + I;
    for (unsigned I = 0, IE = unsigned(St.Items.size()); I != IE; ++I) {
      Symbol Next = St.Items[I].afterDot(G);
      if (Next.valid() && G.isNonterminal(Next)) {
        for (unsigned P : G.productionsOf(Next)) {
          assert(DotZero[P] >= Base && DotZero[P] < M.firstItem(S + 1) &&
                 "closure item missing from state");
          ProdSteps.Data.push_back(DotZero[P]);
        }
      }
      ProdSteps.Begin.push_back(uint32_t(ProdSteps.Data.size()));
    }
  }

  transpose(NumNodes, RevTransitions.Begin, RevTransitions.Data,
            [&](auto Edge) {
              for (NodeId N = 0; N != NumNodes; ++N)
                if (Fwd[N] != InvalidNode)
                  Edge(N, Fwd[N]);
            });
  transpose(NumNodes, RevProdSteps.Begin, RevProdSteps.Data, [&](auto Edge) {
    for (NodeId N = 0; N != NumNodes; ++N)
      for (NodeId Step : ProdSteps.row(N))
        Edge(N, Step);
  });
  if (Metrics) {
    Metrics->add(metric::GraphBuilds);
    Metrics->add(metric::GraphNodes, Nodes.size());
    Metrics->add(metric::GraphEdges,
                 ProdSteps.Data.size() + RevTransitions.Data.size());
  }
}

StateItemGraph::NodeId StateItemGraph::nodeFor(unsigned State,
                                               const Item &I) const {
  // Out-of-range states come from malformed Conflict records; report
  // "not found" so callers degrade instead of indexing out of bounds.
  if (State >= M.numStates())
    return InvalidNode;
  int Idx = M.state(State).indexOfItem(I);
  if (Idx < 0)
    return InvalidNode;
  NodeId N = M.firstItem(State) + unsigned(Idx);
  recordTouch(N);
  return N;
}

std::vector<bool> StateItemGraph::nodesReaching(NodeId Target) const {
  // Every node the BFS marks is a read worth recording: the caller's
  // pruning decisions depend on exactly the set of marked nodes, and a
  // replayed search sees the same set precisely when every marked node
  // still has identical reverse rows (the touched-set verification's
  // induction runs over this BFS).
  GraphTouchRecorder *Rec = GraphTouchRecorder::active();
  std::vector<bool> Reaches(Nodes.size(), false);
  Reaches[Target] = true;
  if (Rec)
    Rec->touch(Target);
  std::deque<NodeId> Work = {Target};
  while (!Work.empty()) {
    NodeId N = Work.front();
    Work.pop_front();
    for (NodeId P : RevTransitions.row(N)) {
      if (!Reaches[P]) {
        Reaches[P] = true;
        if (Rec)
          Rec->touch(P);
        Work.push_back(P);
      }
    }
    for (NodeId P : RevProdSteps.row(N)) {
      if (!Reaches[P]) {
        Reaches[P] = true;
        if (Rec)
          Rec->touch(P);
        Work.push_back(P);
      }
    }
  }
  return Reaches;
}

std::string StateItemGraph::describe(NodeId N) const {
  recordTouch(N);
  const NodeData &D = Nodes[N];
  return "(state #" + std::to_string(D.State) + ", " +
         grammar().productionString(D.Itm.Prod, int(D.Itm.Dot)) + ")";
}
