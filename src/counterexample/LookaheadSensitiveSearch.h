//===- counterexample/LookaheadSensitiveSearch.h ---------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shortest lookahead-sensitive path of paper §4.
///
/// Vertices of the lookahead-sensitive graph are (state, item, L) triples
/// where L is a \e precise lookahead set: the set of terminals that can
/// actually follow the current production given the production steps taken
/// so far. Transition edges preserve L; production-step edges replace it
/// with followL(item) (Fig. 4). The search runs a BFS from the start item
/// with L = {$} to the conflict reduce item with conflict terminal in L,
/// visiting only state-items from which the conflict item is reachable
/// (the §6 pruning).
///
/// The production implementation runs on hash-consed TerminalSetPool ids:
/// vertices carry a canonical SetId instead of a copied bitset, the FIFO
/// is a two-bucket Dial queue over flat arrays, per-node visited sets are
/// dominance frontiers (a vertex is pruned when an earlier vertex at the
/// same node already covers its lookahead set — see DESIGN.md §5e for the
/// proof this preserves the exact path the plain BFS finds), and followL
/// is one cached union over the analysis's memoized suffix-FIRST tables.
///
///   - Family-shared frontiers: the dot-0 nodes (s, A -> .g) of one state
///     and nonterminal — one productionSteps() row — share one frontier
///     and union mask, keyed by the row's first node, so a production
///     step probes once for the whole row. Only production steps reach a
///     dot-0 node, and each offers the same set to every relevant member,
///     so their frontiers would be identical anyway: the search admits
///     the same vertices in the same order, and of the LssStats counters
///     only SubsetChecks moves.
///
/// The pre-pool BFS is retained as shortestLookaheadSensitivePathReference
/// for the equivalence tests and the pooled-vs-baseline benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_LOOKAHEADSENSITIVESEARCH_H
#define LALRCEX_COUNTEREXAMPLE_LOOKAHEADSENSITIVESEARCH_H

#include "counterexample/StateItemGraph.h"
#include "support/Budget.h"

#include <optional>
#include <vector>

namespace lalrcex {

/// One step of a lookahead-sensitive path.
struct LssStep {
  enum Kind : uint8_t {
    Start,      ///< the initial vertex
    Transition, ///< arrived by shifting the previous node's dot symbol
    Production, ///< arrived by a production step within the same state
  };
  StateItemGraph::NodeId Node;
  Kind EdgeKind;
  /// The precise lookahead set at this vertex.
  IndexSet Lookaheads;
};

/// A path from the start item to the conflict item; Steps.front() is the
/// start vertex.
struct LssPath {
  std::vector<LssStep> Steps;

  /// The state-item nodes on the path (used to restrict the unifying
  /// search's reverse transitions, §6).
  std::vector<StateItemGraph::NodeId> nodes() const;
};

/// Observability counters for one lookahead-sensitive search (surfaced by
/// grammar_debugger -lss-stats and the microbenchmarks). Never affects
/// the search result. Deprecated in favor of the pipeline-wide
/// MetricsRegistry (lss.* counters), which reports the same quantities;
/// retained so -lss-stats and the PR 4 benchmarks keep their exact shape.
struct LssStats {
  size_t Expanded = 0;        ///< vertices popped from the queue
  size_t Enqueued = 0;        ///< vertices admitted to the frontier
  size_t DominancePruned = 0; ///< candidates covered by an earlier vertex
  size_t SubsetChecks = 0;    ///< pooled containsAll dominance probes
  size_t PoolWideSets = 0;    ///< wide sets interned by this search
  size_t PoolArenaBytes = 0;  ///< arena bytes owned by this search's pool
  size_t UnionCalls = 0;      ///< non-trivial pooled unions requested
  size_t UnionCacheHits = 0;  ///< of which answered from the union cache
};

/// Finds the shortest lookahead-sensitive path from the start item to
/// (\p ConflictNode, L) with \p ConflictTerm in L. \returns nullopt only
/// if the conflict item is unreachable (which would indicate an automaton
/// bug for genuine conflicts).
/// \p PruneToReaching restricts the search to state-items from which the
/// conflict item is reachable (the paper's §6 optimization); disabling it
/// exists for the ablation benchmark.
/// \p Guard, when given, is charged one step per expanded vertex and for
/// the search pool's memory; if it trips (cancellation, cumulative
/// budget), the search stops and returns nullopt — callers degrade to a
/// bare item-pair report.
/// \p Stats, when given, receives the search's counters.
/// \p Metrics, when given, receives the same counters as lss.* metrics
/// plus the search wall time (time.lss_ns).
std::optional<LssPath>
shortestLookaheadSensitivePath(const StateItemGraph &Graph,
                               StateItemGraph::NodeId ConflictNode,
                               Symbol ConflictTerm,
                               bool PruneToReaching = true,
                               ResourceGuard *Guard = nullptr,
                               LssStats *Stats = nullptr,
                               MetricsRegistry *Metrics = nullptr);

/// The pre-pool reference implementation (plain BFS, per-vertex IndexSet
/// copies, exact-equality visited sets). Kept verbatim so the equivalence
/// test and the pooled-vs-baseline benchmark can compare against it.
std::optional<LssPath>
shortestLookaheadSensitivePathReference(const StateItemGraph &Graph,
                                        StateItemGraph::NodeId ConflictNode,
                                        Symbol ConflictTerm,
                                        bool PruneToReaching = true,
                                        ResourceGuard *Guard = nullptr);

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_LOOKAHEADSENSITIVESEARCH_H
