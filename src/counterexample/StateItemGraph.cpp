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

thread_local GraphTouchRecorder *GraphTouchRecorder::Active = nullptr;

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
    : M(M), LaPool(TerminalSetPool::overlay(M.analysis().pool())) {
  ScopedTimer Timer(Metrics, metric::TimeGraphBuildNs);
  TraceSpan Span(Trace, "graph-build");
  const Grammar &G = M.grammar();

  // Enumerate nodes: per state, in the state's item order.
  StateOffset.assign(M.numStates() + 1, 0);
  for (unsigned S = 0, SE = M.numStates(); S != SE; ++S)
    StateOffset[S + 1] = StateOffset[S] + unsigned(M.state(S).Items.size());
  const NodeId NumNodes = StateOffset[M.numStates()];
  Nodes.reserve(NumNodes);
  for (unsigned S = 0, SE = M.numStates(); S != SE; ++S) {
    const Automaton::State &St = M.state(S);
    for (unsigned I = 0, IE = unsigned(St.Items.size()); I != IE; ++I)
      Nodes.push_back(NodeData{S, I, St.Items[I]});
  }

  // Forward edges and production-step rows, state by state. A dot-0 item
  // is always a closure item (S' -> . S aside, which no right-hand side
  // mentions), so stamping each production's dot-0 node per state answers
  // every production-step target of the state. A transition's advanced
  // item is a kernel item of the goto state, and kernels are sorted, so a
  // binary search over that kernel finds the forward target.
  Fwd.assign(NumNodes, InvalidNode);
  ProdSteps.Begin.reserve(NumNodes + 1);
  ProdSteps.Begin.push_back(0);
  std::vector<NodeId> DotZero(G.numProductions(), InvalidNode);
  for (unsigned S = 0, SE = M.numStates(); S != SE; ++S) {
    const Automaton::State &St = M.state(S);
    const NodeId Base = StateOffset[S];
    for (unsigned I = 0, IE = unsigned(St.Items.size()); I != IE; ++I)
      if (St.Items[I].Dot == 0)
        DotZero[St.Items[I].Prod] = Base + I;
    for (unsigned I = 0, IE = unsigned(St.Items.size()); I != IE; ++I) {
      const Item &Itm = St.Items[I];
      Symbol Next = Itm.afterDot(G);
      if (Next.valid()) {
        int Target = M.transition(S, Next);
        assert(Target >= 0 && "state must have a transition on the dot symbol");
        const Automaton::State &To = M.state(unsigned(Target));
        auto KernelEnd = To.Items.begin() + To.NumKernel;
        auto It = std::lower_bound(To.Items.begin(), KernelEnd, Itm.advanced());
        assert(It != KernelEnd && *It == Itm.advanced() &&
               "advanced item missing from the target kernel");
        Fwd[Base + I] =
            StateOffset[unsigned(Target)] + NodeId(It - To.Items.begin());
        if (G.isNonterminal(Next)) {
          for (unsigned P : G.productionsOf(Next)) {
            assert(DotZero[P] >= Base && DotZero[P] < StateOffset[S + 1] &&
                   "closure item missing from state");
            ProdSteps.Data.push_back(DotZero[P]);
          }
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
  // Intern every node's lookahead set, then freeze the pool.
  NodeLookIds.reserve(NumNodes);
  for (const NodeData &D : Nodes)
    NodeLookIds.push_back(
        LaPool.intern(M.state(D.State).Lookaheads[D.ItemIndex]));
  LaPool.freeze();

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
  NodeId N = StateOffset[State] + unsigned(Idx);
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
