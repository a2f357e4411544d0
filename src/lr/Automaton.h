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

#include <memory>
#include <vector>

namespace lalrcex {

namespace cache {
struct ArtifactAccess;
}

class MetricsRegistry;
class TraceRecorder;
struct GrammarDelta;

/// What one Automaton::patch call reused versus recomputed; the counts
/// feed the automaton.states_* metrics and schema-7 bench records.
struct AutomatonPatchStats {
  unsigned StatesReused = 0;  ///< spliced: item closure taken from the old state
  unsigned StatesRebuilt = 0; ///< kernel matched an old state, closure re-run
  unsigned StatesAdded = 0;   ///< no old counterpart (fresh kernel)
  unsigned StatesDead = 0;    ///< old states with no new counterpart
  /// Spliced states whose productions the edit leaves unaffected and
  /// whose lookahead vector equals the old state's (through the terminal
  /// map): their old parse-table rows translate unchanged.
  unsigned LookaheadsCopied = 0;
};

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

  /// Dirty-state incremental rebuild: constructs the automaton for \p G
  /// by re-running the LR(0) worklist while *splicing* every state whose
  /// old counterpart is provably untouched by the edit described in
  /// \p Delta — an old state is clean when every one of its items'
  /// productions maps and no item's dot sits before an edited
  /// nonterminal, in which case its remapped item vector *is* the LR(0)
  /// closure of the remapped kernel (the expansion only consults
  /// unedited production blocks, which map 1:1 in order). The worklist,
  /// interning order, and transition grouping are the cold builder's,
  /// so state numbering and every byte of the result are identical to a
  /// cold build; the lookahead pass then re-runs globally.
  ///
  /// \p Old must be the automaton of \p Delta's old grammar. \returns
  /// nullptr when patching is inapplicable (non-LALR(1) kind on either
  /// side, or an invalid delta) and the caller must build cold. On
  /// success the optional out-parameters receive the old<->new state
  /// correspondence (kernel-matched states; -1 where none), per new
  /// state whether it was spliced (item layout identical to its old
  /// counterpart under the delta's production map), and per new state
  /// whether its lookaheads count as copied: spliced, every production
  /// unaffected by the edit, and the lookahead vector equal to the old
  /// state's — verbatim when the delta's terminal map is the identity,
  /// through it otherwise. \p LaCopied is the precondition the
  /// ParseTable patch needs: such a state has action-row content
  /// identical to its old row under the id maps.
  static std::unique_ptr<Automaton>
  patch(const Grammar &G, const GrammarAnalysis &Analysis,
        const Automaton &Old, const GrammarDelta &Delta,
        const AutomatonOptions &Opts, AutomatonPatchStats *Stats = nullptr,
        std::vector<int> *OldToNew = nullptr,
        std::vector<int> *NewToOld = nullptr,
        std::vector<bool> *Spliced = nullptr,
        std::vector<bool> *LaCopied = nullptr);

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
