//===- counterexample/StateItemGraph.h - (state, item) graph ---*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state-item graph underlying both counterexample searches.
///
/// A node is a pair of a parser state and an item within it. Edges are the
/// two edge kinds of the paper's lookahead-sensitive graph (Fig. 4), here
/// without lookahead components (searches layer lookaheads on top):
///
///   - \e transition: (s, A -> a . X b)  ->  (s', A -> a X . b) where the
///     parser has a transition from s to s' on X;
///   - \e production step: (s, A -> a . B b)  ->  (s, B -> . g) for every
///     production B -> g (within the same state).
///
/// The paper's implementation section (§6) notes that parser generators do
/// not index reverse transitions and reverse production steps; this class
/// is exactly that precomputed lookup-table infrastructure. Node ids are
/// the automaton's item numbers and the transition edges are its item
/// successors, both recorded while the automaton was built; the graph adds
/// the production-step rows and the two reverse tables.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_STATEITEMGRAPH_H
#define LALRCEX_COUNTEREXAMPLE_STATEITEMGRAPH_H

#include "lr/Automaton.h"

#include <vector>

namespace lalrcex {

class TraceRecorder;

/// Records the set of graph nodes a search *reads* — every accessor the
/// searches reach the graph through marks the node it was asked about.
/// The finder activates one recorder per examined conflict (thread-local,
/// so concurrent outer workers record independently) and stores the
/// touched set beside the conflict's report in the cache; after a structural
/// grammar edit, a stored report may be re-served exactly when every
/// touched node still exists with identical item, lookaheads, and
/// adjacency rows under the edit's id maps — the search, being
/// deterministic, would replay the same steps (IncrementalSession.h).
///
/// Recording reads rather than search-specific "visited" sets is what
/// makes the set complete: candidates a search probes and rejects are
/// still reads, and all reads flow through the public accessors.
class GraphTouchRecorder {
public:
  explicit GraphTouchRecorder(unsigned NumNodes) : Marks(NumNodes, false) {}

  void touch(uint32_t N) {
    if (N < Marks.size() && !Marks[N]) {
      Marks[N] = true;
      Touched.push_back(N);
    }
  }

  /// The touched node ids in ascending order.
  std::vector<uint32_t> sortedNodes() const;

  /// The recorder active on this thread, or null when not recording.
  static GraphTouchRecorder *active() { return Active; }

private:
  friend class ScopedGraphTouchRecorder;
  // Constant-initialized, so every access is a plain TLS load: no lazy
  // TLS-init check in the graph accessors, and nothing for an optimized
  // sanitizer build to misread.
  static constinit inline thread_local GraphTouchRecorder *Active = nullptr;

  std::vector<bool> Marks;
  std::vector<uint32_t> Touched;
};

/// RAII activation of a GraphTouchRecorder on the current thread.
class ScopedGraphTouchRecorder {
public:
  explicit ScopedGraphTouchRecorder(GraphTouchRecorder *R)
      : Saved(GraphTouchRecorder::Active) {
    GraphTouchRecorder::Active = R;
  }
  ~ScopedGraphTouchRecorder() { GraphTouchRecorder::Active = Saved; }
  ScopedGraphTouchRecorder(const ScopedGraphTouchRecorder &) = delete;
  ScopedGraphTouchRecorder &operator=(const ScopedGraphTouchRecorder &) =
      delete;

private:
  GraphTouchRecorder *Saved;
};

/// Precomputed node/edge tables over (state, item) pairs.
class StateItemGraph {
public:
  using NodeId = uint32_t;
  static constexpr NodeId InvalidNode = ~NodeId(0);

  /// A borrowed contiguous range of node ids — one adjacency row of the
  /// compressed-sparse-row edge tables. Valid as long as the graph lives.
  class NodeRange {
  public:
    NodeRange(const NodeId *B, const NodeId *E) : B(B), E(E) {}
    const NodeId *begin() const { return B; }
    const NodeId *end() const { return E; }
    size_t size() const { return size_t(E - B); }
    bool empty() const { return B == E; }

  private:
    const NodeId *B;
    const NodeId *E;
  };

  /// \p Metrics / \p Trace, when non-null, record build wall time and
  /// node/edge counts (graph.* metrics, "graph-build" span).
  explicit StateItemGraph(const Automaton &M,
                          MetricsRegistry *Metrics = nullptr,
                          TraceRecorder *Trace = nullptr);

  const Automaton &automaton() const { return M; }
  const Grammar &grammar() const { return M.grammar(); }

  unsigned numNodes() const { return unsigned(Nodes.size()); }

  unsigned stateOf(NodeId N) const {
    recordTouch(N);
    return Nodes[N].State;
  }
  const Item &itemOf(NodeId N) const {
    recordTouch(N);
    return Nodes[N].Itm;
  }

  /// The LALR lookahead set of the node's item.
  const IndexSet &lookahead(NodeId N) const {
    recordTouch(N);
    return M.state(Nodes[N].State).Lookaheads[Nodes[N].ItemIndex];
  }

  /// The node for (\p State, \p I), or InvalidNode if the item is not in
  /// the state.
  NodeId nodeFor(unsigned State, const Item &I) const;

  /// The symbol after the node's dot (the label of its out-transition);
  /// invalid for reduce items.
  Symbol transitionSymbol(NodeId N) const {
    recordTouch(N);
    return Nodes[N].Itm.afterDot(grammar());
  }

  /// Transition successor, or InvalidNode for reduce items.
  NodeId forwardTransition(NodeId N) const {
    recordTouch(N);
    return Fwd[N];
  }

  /// Production-step successors (targets are dot-0 items of the
  /// nonterminal after the dot, in the same state).
  NodeRange productionSteps(NodeId N) const {
    recordTouch(N);
    return ProdSteps.row(N);
  }

  /// Sources of transitions into \p N.
  NodeRange reverseTransitions(NodeId N) const {
    recordTouch(N);
    return RevTransitions.row(N);
  }

  /// Sources of production steps into \p N (only nonempty for dot-0
  /// items).
  NodeRange reverseProductionSteps(NodeId N) const {
    recordTouch(N);
    return RevProdSteps.row(N);
  }

  /// Marks every node from which \p Target is reachable via transition or
  /// production-step edges. Used to prune the lookahead-sensitive search
  /// (§6) and to restrict reverse transitions to relevant states.
  std::vector<bool> nodesReaching(NodeId Target) const;

  /// A readable "(state #s, item)" string for diagnostics.
  std::string describe(NodeId N) const;

private:
  struct NodeData {
    unsigned State;
    unsigned ItemIndex;
    Item Itm;
  };

  /// Reports a node read to the thread's active touch recorder, if any
  /// (a thread-local load and a branch when recording is off).
  void recordTouch(NodeId N) const {
    if (GraphTouchRecorder *R = GraphTouchRecorder::active())
      R->touch(N);
  }

  /// Compressed-sparse-row adjacency: row N is Data[Begin[N], Begin[N + 1]).
  /// One allocation per edge kind instead of one vector per node, so the
  /// search's hottest loops walk cache-dense spans instead of chasing
  /// vector headers.
  struct Csr {
    std::vector<uint32_t> Begin; // NumNodes + 1 prefix sums
    std::vector<NodeId> Data;

    NodeRange row(NodeId N) const {
      return NodeRange(Data.data() + Begin[N], Data.data() + Begin[N + 1]);
    }
  };

  const Automaton &M;
  std::vector<NodeData> Nodes; // node id = the automaton's item number
  const NodeId *Fwd;           // the automaton's successors
  Csr ProdSteps;
  Csr RevTransitions;
  Csr RevProdSteps;
};

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_STATEITEMGRAPH_H
