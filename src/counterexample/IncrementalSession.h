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
/// — but only after verifying, node by
/// node, that every graph node the original search *read* (the touched
/// set recorded into the blob, see GraphTouchRecorder) still exists with
/// identical item, lookahead set, and adjacency rows under the maps. The
/// searches are deterministic, so identical reads force an identical
/// run: serving the remapped report is byte-for-byte what a recompute
/// would have produced.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_INCREMENTALSESSION_H
#define LALRCEX_COUNTEREXAMPLE_INCREMENTALSESSION_H

#include "counterexample/CounterexampleFinder.h"
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

  /// The current-generation node for old-generation node \p OldN, or
  /// InvalidNode when its state died or its item's production is
  /// unmapped. Mapping goes through (state, item) identity.
  StateItemGraph::NodeId mapOldNode(StateItemGraph::NodeId OldN) const;

  /// Verifies that every node of \p OldTouched — the read set recorded
  /// during the original search — survives the edit unchanged: its state
  /// matched, its item's production mapped, its lookahead set equal, and
  /// all four adjacency rows equal *elementwise in order* under mapOldNode
  /// (order matters: the replayed search must read identical sequences,
  /// not just identical sets). On top of the graph rows it certifies the
  /// analysis artifacts the searches consult at those nodes: for every
  /// right-hand-side symbol of a touched item's production, FIRST and
  /// nullability must be semantically equal across the edit, and the
  /// minimal-derivation completions (epsilon and begins-with-
  /// \p ConflictTerm) must pick production choices that map through the
  /// delta — compared on the actual fixpoint results of both generations,
  /// so a tie-break flipped by a reorder is caught, while an edit in an
  /// unconsulted corner of a symbol's derivation cone is not penalized.
  /// On success, when \p NewTouched is non-null it receives the
  /// translated set in ascending current-generation node order.
  bool verifyTouched(Symbol ConflictTerm,
                     const std::vector<uint32_t> &OldTouched,
                     std::vector<uint32_t> *NewTouched = nullptr) const;

  /// Rewrites \p OldRep (stored by the previous generation for \p OldC)
  /// as the report the current generation would produce for \p NewC:
  /// conflict record replaced, derivation trees rebuilt under the symbol
  /// and production maps, timings and outcomes copied verbatim. \returns
  /// false when any symbol or production in the derivations is unmapped
  /// or affected (the caller recomputes instead).
  bool remapReport(const ConflictReport &OldRep, const Conflict &OldC,
                   const Conflict &NewC, ConflictReport &Out) const;
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
