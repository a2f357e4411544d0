//===- counterexample/IncrementalSession.h - Edit-loop sessions -*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session object behind `-edit-loop` style workflows: it owns one
/// grammar's full analysis generation (grammar, analysis, automaton,
/// parse table, state-item graph) and, on each edit, builds the next
/// generation cold and relates it to the previous one:
///
///   - the structural diff (grammar/GrammarDelta.h) supplies the symbol,
///     production and terminal maps;
///   - when the delta is valid and the machine is LALR(1), the states are
///     kernel-matched: every old kernel, mapped through the production
///     map, is interned, and each new kernel is looked up. A new state
///     and an old state correspond exactly when their kernels do.
///
/// **Conflict-report remapping.** After a structural edit the report
/// blob's key misses (it hashes the grammar's shape by raw ids). The
/// IncrementalHandoff exposes the delta and the state maps to the finder,
/// which then looks the conflict's old record up in the previous
/// structure's blob and re-serves the old report with all ids rewritten
/// — but only after a RemapVerifier, built once per finder run from the
/// handoff, has verified node by node that every graph node the original
/// search *read* (the touched set recorded into the blob, see
/// GraphTouchRecorder) still exists with identical item, lookahead set,
/// and adjacency rows under the maps, and that the analysis answers the
/// searches consult there are unchanged. The searches are deterministic,
/// so identical reads force an identical run: serving the remapped report
/// is byte-for-byte what a recompute would have produced.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_INCREMENTALSESSION_H
#define LALRCEX_COUNTEREXAMPLE_INCREMENTALSESSION_H

#include "counterexample/CounterexampleFinder.h"
#include "counterexample/NonunifyingBuilder.h"
#include "counterexample/StateItemGraph.h"
#include "grammar/GrammarDelta.h"
#include "lr/ParseTable.h"

#include <memory>
#include <string>
#include <vector>

namespace lalrcex {

/// Everything the finder needs to remap old-generation conflict reports
/// onto the current generation. Borrowed views into an IncrementalSession;
/// valid until its next advance(). All pointers are non-null when the
/// handoff is offered at all (handoff() returns null otherwise).
struct IncrementalHandoff {
  const Grammar *PrevG = nullptr;
  const ParseTable *PrevTable = nullptr;
  const StateItemGraph *PrevGraph = nullptr;
  const GrammarDelta *Delta = nullptr;
  /// Old state -> new state (kernel-matched) or -1.
  const std::vector<int> *OldToNewState = nullptr;
  /// New state -> old state (kernel-matched) or -1.
  const std::vector<int> *NewToOldState = nullptr;
  /// The *current* generation's graph (the one the finder must search).
  const StateItemGraph *Graph = nullptr;

  /// Translates a conflict of the current automaton back to the conflict
  /// record the previous generation would have stored — same state under
  /// the state map, productions under the inverse production map, token
  /// under the inverse terminal map (the identity until a terminal edit;
  /// see GrammarDelta's terminal pairing). \returns false when any
  /// needed id is unmapped.
  bool mapConflictToOld(const Conflict &NewC, Conflict &OldC) const;

  /// Rewrites \p OldRep (stored by the previous generation for \p OldC)
  /// as the report the current generation would produce for \p NewC:
  /// conflict record replaced, derivation trees rebuilt under the symbol
  /// and production maps, timings and outcomes copied verbatim. \returns
  /// false when any symbol or production in the derivations is unmapped
  /// or affected (the caller recomputes instead).
  bool remapReport(const ConflictReport &OldRep, const Conflict &OldC,
                   const Conflict &NewC, ConflictReport &Out) const;
};

/// Touched-set verification for the remap layer of one finder run.
/// Every check it makes is a pure function of an old graph node, an old
/// symbol, or an old symbol and the conflict terminal, so each is
/// computed at most once and shared by every probe of the run:
///
///   - per old node: its image in the current graph (through (state,
///     item) identity), and its structural verdict — state matched,
///     production mapped, item present, lookahead equal through the
///     terminal map, forward target equal, and the three adjacency rows
///     equal elementwise in order — with the first check that failed;
///   - per old symbol, whatever the conflict terminal: the verdicts on
///     its mapping, nullability, FIRST set and minimal epsilon derivation
///     (against both generations' MinimalDerivationChoices, built once);
///   - per conflict terminal: both generations' begins-with tables (for
///     the old terminal and its image) and the begins-with verdicts.
///
/// Sharing cannot change a verdict, for two reasons. The handoff's
/// grammars, graphs and maps do not change while the verifier lives (one
/// finder run, inside one session generation). And the derivation checks
/// recurse only into symbols of strictly smaller minimal cost, so no memo
/// entry is read while it is being filled, and an entry does not depend
/// on which probe filled it. Not thread-safe: the finder runs its remap
/// layer serially on the calling thread, before any worker starts.
class RemapVerifier {
public:
  /// A probe's outcome: Verified, or the class of the first check that
  /// failed, in the order the checks run.
  enum Verdict : uint8_t {
    Verified,
    /// Empty or out-of-range touched set, unmatched state, unmapped
    /// production, or item missing from the matched state.
    StateFailed,
    LookaheadFailed, ///< a lookahead set differs through the terminal map
    RowFailed,       ///< the forward target or an adjacency row differs
    /// A symbol of a touched item's production is unmapped, or its FIRST
    /// set or nullability changed.
    FirstFailed,
    /// A minimal epsilon or begins-with derivation chose differently.
    ChoiceFailed,
    NumVerdicts
  };

  /// \p H must stay valid (no session advance) while the verifier lives.
  explicit RemapVerifier(const IncrementalHandoff &H);

  /// Verifies that every node of \p OldTouched — the read set recorded
  /// during the original search of a conflict on old terminal
  /// \p ConflictTerm — survives the edit unchanged: its state matched,
  /// its item's production mapped, its lookahead set equal, and its
  /// forward target and three adjacency rows equal *elementwise in order*
  /// under the node images (order matters: the replayed search must read
  /// identical sequences, not just identical sets). On top of the graph
  /// rows it certifies the analysis artifacts the searches consult at
  /// those nodes: for every right-hand-side symbol of a touched item's
  /// production, FIRST and nullability must be semantically equal across
  /// the edit, and the minimal-derivation completions (epsilon and
  /// begins-with-\p ConflictTerm) must pick production choices that map
  /// through the delta — compared on the actual fixpoint results of both
  /// generations, so a tie-break flipped by a reorder is caught, while an
  /// edit in an unconsulted corner of a symbol's derivation cone is not
  /// penalized. When Verified, \p NewTouched receives the translated set
  /// in ascending current-generation node order.
  Verdict verify(Symbol ConflictTerm, const std::vector<uint32_t> &OldTouched,
                 std::vector<uint32_t> &NewTouched);

private:
  using NodeId = StateItemGraph::NodeId;
  /// Both generations' begins-with choices for one old conflict terminal.
  struct BeginTables {
    Symbol NewTerm; ///< the terminal's image; invalid when unmapped
    std::vector<MinimalDerivationChoices::BeginChoice> OldBest, NewBest;
    std::vector<Verdict> Verdicts; ///< per old symbol
  };

  NodeId image(NodeId OldN);
  Verdict checkNode(NodeId OldN);
  bool rowEqual(StateItemGraph::NodeRange OldRow,
                StateItemGraph::NodeRange NewRow);
  Verdict certify(Symbol X, Symbol Term);
  Verdict certifySymbol(Symbol X);
  bool certifyEps(Symbol X);
  bool certifyBegin(Symbol X, Symbol Term, BeginTables &B);
  BeginTables &beginTables(Symbol Term);
  bool firstEqual(const IndexSet &OldS, const IndexSet &NewS) const;

  const StateItemGraph &OldGraph, &NewGraph;
  const Grammar &OldG, &NewG;
  const GrammarAnalysis &OldA, &NewA;
  const GrammarDelta &Delta;
  const std::vector<int> &OldToNewState;
  std::vector<NodeId> Images;          ///< per old node
  std::vector<Verdict> NodeVerdicts;   ///< per old node
  std::vector<Verdict> SymbolVerdicts; ///< per old nonterminal
  std::vector<Verdict> EpsVerdicts;    ///< per old symbol
  MinimalDerivationChoices OldMin, NewMin;
  std::vector<std::unique_ptr<BeginTables>> Begin; ///< per old terminal
};

/// Owns successive analysis generations over an edited grammar and the
/// state correspondence between the last two. See the file comment.
class IncrementalSession {
public:
  /// Kernel-match counts of one advance.
  struct StateMatchStats {
    unsigned StatesReused = 0; ///< new states kernel-matched to an old state
  };

  /// What one advance() did, for bench records and diagnostics.
  struct AdvanceStats {
    /// Delta valid, states kernel-matched, handoff offered.
    bool Patched = false;
    std::string ColdReason; ///< why no handoff, when !Patched
    StateMatchStats Patch;  ///< valid when Patched
  };

  /// Builds the first generation.
  explicit IncrementalSession(Grammar G,
                              AutomatonKind Kind = AutomatonKind::Lalr1,
                              MetricsRegistry *Metrics = nullptr,
                              TraceRecorder *Trace = nullptr);

  /// Advances to \p NewG: builds its generation cold, computes the delta
  /// against the current one, and kernel-matches the states when the
  /// delta permits. The previous generation is retained (for the handoff)
  /// until the advance after this one.
  const AdvanceStats &advance(Grammar NewG);

  const Grammar &grammar() const { return *Cur.G; }
  const GrammarAnalysis &analysis() const { return *Cur.A; }
  const Automaton &automaton() const { return *Cur.M; }
  const ParseTable &table() const { return *Cur.T; }
  const StateItemGraph &graph() const { return *Cur.Graph; }

  /// The remap handoff for the finder, or null when the last advance could
  /// not match states (or no advance has happened yet). Valid until the
  /// next advance().
  const IncrementalHandoff *handoff() const {
    return HandoffValid ? &Handoff : nullptr;
  }

private:
  struct Generation {
    std::unique_ptr<Grammar> G;
    std::unique_ptr<GrammarAnalysis> A;
    std::unique_ptr<Automaton> M;
    std::unique_ptr<ParseTable> T;
    std::unique_ptr<StateItemGraph> Graph;
  };

  /// Builds \p G's whole generation cold.
  Generation build(Grammar G) const;

  /// Fills OldToNewState/NewToOldState by kernel matching Prev.M against
  /// Cur.M through LastDelta's production map.
  void matchStates();

  AutomatonKind Kind;
  MetricsRegistry *Metrics;
  TraceRecorder *Trace;

  Generation Cur, Prev;
  GrammarDelta LastDelta;
  std::vector<int> OldToNewState, NewToOldState;
  IncrementalHandoff Handoff;
  bool HandoffValid = false;
  AdvanceStats Stats;
};

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_INCREMENTALSESSION_H
