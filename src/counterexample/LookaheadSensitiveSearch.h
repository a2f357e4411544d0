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
/// The goal only asks whether the conflict terminal t is in L, and both
/// edge maps decide t's membership from t's membership alone, so the
/// production implementation searches (node, bit) pairs, where the bit
/// says whether t is in L. Each frontier key admits at most two vertices
/// (bit clear, then bit set; a set bit dominates), the vertex array in
/// discovery order is the FIFO, and followL's bit is two memoized table
/// lookups. Once the goal is found, the precise sets are rebuilt along
/// its parent chain. DESIGN.md §5e proves this returns the exact path,
/// sets included, that the set-valued BFS returns, and expands the same
/// nodes before the goal (so the touched sets the cache stores are
/// unchanged).
///
///   - Family keys: the dot-0 nodes (s, A -> .g) of one state and
///     nonterminal — one productionSteps() row — share one frontier key,
///     the row's first node, so a production step probes once for the
///     whole row. Only production steps reach a dot-0 node, and each
///     offers the same bit to every relevant member.
///
/// The set-valued BFS is retained as shortestLookaheadSensitivePathReference,
/// the oracle of the equivalence tests and the benchmarks' baseline.
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
/// the search result. The pipeline-wide MetricsRegistry reports the same
/// quantities as lss.* counters.
struct LssStats {
  size_t Expanded = 0;        ///< vertices popped from the queue
  size_t Enqueued = 0;        ///< vertices admitted to the frontier
  size_t DominancePruned = 0; ///< candidates covered by an earlier vertex
};

/// Finds the shortest lookahead-sensitive path from the start item to
/// (\p ConflictNode, L) with \p ConflictTerm in L. \returns nullopt only
/// if the conflict item is unreachable (which would indicate an automaton
/// bug for genuine conflicts).
/// \p PruneToReaching restricts the search to state-items from which the
/// conflict item is reachable (the paper's §6 optimization); disabling it
/// exists for the ablation benchmark.
/// \p Guard, when given, is charged one step per expanded vertex; if it
/// trips (cancellation, cumulative budget), the search stops and returns
/// nullopt — callers degrade to a bare item-pair report.
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

/// The reference implementation (plain set-valued BFS, per-vertex
/// IndexSet copies, exact-equality visited sets). Kept verbatim so the
/// equivalence tests and the benchmarks can compare against it.
std::optional<LssPath>
shortestLookaheadSensitivePathReference(const StateItemGraph &Graph,
                                        StateItemGraph::NodeId ConflictNode,
                                        Symbol ConflictTerm,
                                        bool PruneToReaching = true,
                                        ResourceGuard *Guard = nullptr);

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_LOOKAHEADSENSITIVESEARCH_H
