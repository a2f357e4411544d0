//===- lr/Automaton.h - LALR(1) parser state machine -----------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical LR(0) collection with LALR(1) lookahead sets.
///
/// Construction proceeds in two phases:
///   1. the canonical LR(0) collection (states = kernel item sets, plus the
///      closure items of each state), interned through a kernel hash table;
///   2. LALR(1) lookaheads by DeRemer & Pennello's relational method
///      ("Efficient computation of LALR(1) look-ahead sets", TOPLAS 1982):
///      over the nonterminal transitions (p, A), Read is the DIGRAPH
///      closure of the directly-read terminals under `reads`, and Follow
///      the closure of Read under `includes`. A closure item A -> . w of
///      state p gets Follow(p, A); a kernel item A -> a . b of state q gets
///      the union of Follow(p, A) over every p whose a-path reaches q.
///
/// Every item of every state therefore carries the merged LALR(1)
/// lookahead set that the paper's counterexample algorithms consume. The
/// Dragon Book's spontaneous-generation / propagation algorithm 4.63 plus
/// an in-state closure fixpoint computes the same sets and is retained as
/// the reference (AutomatonOptions::PooledSets off).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_LR_AUTOMATON_H
#define LALRCEX_LR_AUTOMATON_H

#include "grammar/Analysis.h"
#include "grammar/Grammar.h"
#include "lr/Item.h"
#include "support/IndexSet.h"

#include <vector>

namespace lalrcex {

namespace cache {
struct ArtifactAccess;
}

class MetricsRegistry;
class TraceRecorder;

/// Which parser state machine to construct.
enum class AutomatonKind {
  /// LR(0) states with merged LALR(1) lookaheads (the paper's setting and
  /// the default). Compact, but lookahead merging can manufacture
  /// conflicts no single context exhibits.
  Lalr1,
  /// Canonical LR(1): states are distinguished by their lookahead sets.
  /// Larger, but free of merge artifacts; the counterexample machinery
  /// works on it unchanged.
  Canonical,
};

/// Construction options beyond the machine kind.
struct AutomatonOptions {
  AutomatonKind Kind = AutomatonKind::Lalr1;
  /// LALR(1): compute lookaheads by the DeRemer–Pennello relations over
  /// flat word arrays. Canonical LR(1): run the closure fixpoint on
  /// hash-consed TerminalSetPool ids. Off selects the reference IndexSet
  /// fixpoints (Dragon Book algorithm 4.63 plus the in-state closure
  /// rule for LALR(1)), which produce identical lookahead sets and are
  /// kept for the equivalence tests and the baseline benchmarks.
  bool PooledSets = true;
  /// Optional observability sinks: construction wall time, state/item
  /// counts, and the lookahead pass's work — nonterminal transitions and
  /// reads + includes edges (automaton.* metrics) — plus an "automaton"
  /// trace span. Never affect the constructed machine.
  MetricsRegistry *Metrics = nullptr;
  TraceRecorder *Trace = nullptr;
};

/// The LALR(1) (or canonical LR(1)) parser state machine for a grammar.
class Automaton {
public:
  /// One parser state: its items (kernel first, then closure, in a
  /// deterministic order), their LALR(1) lookahead sets, and its outgoing
  /// transitions.
  struct State {
    /// Kernel + closure items; the first NumKernel entries are the kernel.
    std::vector<Item> Items;
    unsigned NumKernel = 0;
    /// Lookahead sets, parallel to Items, over the terminal universe.
    std::vector<IndexSet> Lookaheads;
    /// Outgoing transitions, sorted by symbol id.
    std::vector<std::pair<Symbol, unsigned>> Transitions;

    /// Index of \p I within Items, or -1 if absent.
    int indexOfItem(const Item &I) const;
  };

  /// Builds the automaton. \p Analysis must refer to \p G; both must
  /// outlive the automaton.
  Automaton(const Grammar &G, const GrammarAnalysis &Analysis,
            AutomatonKind Kind = AutomatonKind::Lalr1)
      : Automaton(G, Analysis, AutomatonOptions{Kind, true}) {}

  Automaton(const Grammar &G, const GrammarAnalysis &Analysis,
            const AutomatonOptions &Opts);

  const Grammar &grammar() const { return G; }
  const GrammarAnalysis &analysis() const { return Analysis; }
  AutomatonKind kind() const { return Kind; }

  unsigned numStates() const { return unsigned(States.size()); }
  const State &state(unsigned Index) const { return States[Index]; }

  /// The start state (always 0).
  unsigned startState() const { return 0; }

  /// Target of the transition from \p StateIndex on \p S, or -1 if none.
  int transition(unsigned StateIndex, Symbol S) const;

  /// Lookahead set of \p I in state \p StateIndex. The item must exist.
  const IndexSet &lookahead(unsigned StateIndex, const Item &I) const;

private:
  /// Cache restore: constructs an empty shell whose States the cache
  /// subsystem fills from a validated blob, skipping all three build
  /// phases. Only reachable through the persistent analysis cache.
  friend struct cache::ArtifactAccess;
  struct RestoreTag {};
  Automaton(const Grammar &G, const GrammarAnalysis &Analysis,
            AutomatonKind Kind, RestoreTag)
      : G(G), Analysis(Analysis), Kind(Kind) {}

  /// Work done by one lookahead pass, for the automaton.* metrics.
  struct LookaheadWork {
    unsigned NtTransitions = 0; ///< nonterminal transitions (p, A)
    unsigned RelationEdges = 0; ///< reads + includes edges
  };

  /// LALR(1) lookaheads of every item by DeRemer–Pennello, or with
  /// \p PooledSets off by the reference pair below (no work counted).
  LookaheadWork computeLookaheads(bool PooledSets);
  /// The reference pair: Dragon Book 4.63 kernel lookaheads, then the
  /// in-state LR(1) closure fixpoint.
  void computeKernelLookaheads();
  void computeClosureLookaheads();
  void buildCanonical(bool PooledSets);

  const Grammar &G;
  const GrammarAnalysis &Analysis;
  AutomatonKind Kind;
  std::vector<State> States;
};

} // namespace lalrcex

#endif // LALRCEX_LR_AUTOMATON_H
