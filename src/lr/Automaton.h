//===- lr/Automaton.h - LALR(1) parser state machine -----------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical LR(0) collection with LALR(1) lookahead sets, or the
/// canonical LR(1) collection.
///
/// LALR(1) construction proceeds in two phases:
///   1. the canonical LR(0) collection (states = kernel item sets, plus the
///      closure items of each state), interned through an id-only kernel
///      hash table (support/IdIndex.h). As states are closed their items
///      are numbered in state order, and every item with a symbol after
///      its dot records the number of its advanced item in the goto
///      state: its successor;
///   2. LALR(1) lookaheads by DeRemer & Pennello's relational method
///      ("Efficient computation of LALR(1) look-ahead sets", TOPLAS 1982):
///      over the nonterminal transitions (p, A), Read is the DIGRAPH
///      closure of the directly-read terminals under `reads`, and Follow
///      the closure of Read under `includes`. A closure item A -> . w of
///      state p gets Follow(p, A); a kernel item A -> a . b of state q gets
///      the union of Follow(p, A) over every p whose a-path reaches q. The
///      includes and lookback edges come from walking each closure item
///      along its successors.
///
/// Every item of every state therefore carries the merged LALR(1)
/// lookahead set that the paper's counterexample algorithms consume. The
/// Dragon Book's spontaneous-generation / propagation algorithm 4.63 plus
/// an in-state closure fixpoint computes the same sets and is retained as
/// the reference (AutomatonOptions::ReferenceLookaheads).
///
/// Canonical LR(1) construction interns kernels of (item, lookahead set)
/// pairs and closes each one with an IndexSet fixpoint over the analysis's
/// FIRST sets; it numbers items and records successors the same way.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_LR_AUTOMATON_H
#define LALRCEX_LR_AUTOMATON_H

#include "grammar/Analysis.h"
#include "grammar/Grammar.h"
#include "lr/Item.h"
#include "support/IdIndex.h"
#include "support/IndexSet.h"

#include <vector>

namespace lalrcex {

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
  /// LALR(1) only: compute lookaheads by the reference IndexSet fixpoints
  /// (Dragon Book algorithm 4.63 plus the in-state closure rule) instead
  /// of the DeRemer–Pennello relations over flat word arrays. Both give
  /// identical lookahead sets; the reference is kept for the equivalence
  /// tests and the baseline benchmarks. Canonical LR(1) ignores it.
  bool ReferenceLookaheads = false;
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
      : Automaton(G, Analysis, AutomatonOptions{Kind, false}) {}

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

  /// Items are numbered in state order: state S's items are numbers
  /// firstItem(S) .. firstItem(S + 1) - 1, in the order of its Items.
  unsigned numItems() const { return ItemBase.back(); }
  unsigned firstItem(unsigned StateIndex) const {
    return ItemBase[StateIndex];
  }

  /// Successor of a reduce item.
  static constexpr uint32_t NoSuccessor = ~uint32_t(0);

  /// Per item number, the number of its advanced item in the goto state
  /// on the symbol after its dot (a kernel item), or NoSuccessor.
  const std::vector<uint32_t> &successors() const { return Successors; }

  /// The LALR(1) state whose kernel is the sorted [\p Begin, \p End), or
  /// -1. Canonical LR(1) states share kernels, so it always answers -1
  /// there.
  int stateWithKernel(const Item *Begin, const Item *End) const;

private:
  /// Work done by one lookahead pass, for the automaton.* metrics.
  struct LookaheadWork {
    unsigned NtTransitions = 0; ///< nonterminal transitions (p, A)
    unsigned RelationEdges = 0; ///< reads + includes edges
  };

  /// LALR(1) lookaheads of every item by DeRemer–Pennello, or with
  /// \p Reference by the reference pair below (no work counted).
  LookaheadWork computeLookaheads(bool Reference);
  /// The reference pair: Dragon Book 4.63 kernel lookaheads, then the
  /// in-state LR(1) closure fixpoint.
  void computeKernelLookaheads();
  void computeClosureLookaheads();
  /// The LR(0) collection: states in discovery order, expanded in that
  /// order; a state's moves are grouped per symbol and interned in symbol
  /// order, each target kernel sorted; a closure lists the kernel first,
  /// then closure items in discovery order.
  void buildLr0();
  void buildCanonical();
  /// Numbers the items of the state just appended to States, none of
  /// them with a successor yet.
  void numberNewState();

  const Grammar &G;
  const GrammarAnalysis &Analysis;
  AutomatonKind Kind;
  std::vector<State> States;
  std::vector<unsigned> ItemBase{0}; ///< state -> first item number
  std::vector<uint32_t> Successors;  ///< item number -> successor
  IdIndex KernelTable;               ///< LALR(1): state ids by kernel
};

} // namespace lalrcex

#endif // LALRCEX_LR_AUTOMATON_H
