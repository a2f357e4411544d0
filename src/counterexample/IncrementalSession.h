//===- counterexample/IncrementalSession.h - Dirty-state sessions *- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session object behind `-edit-loop` style workflows: it owns one
/// grammar's full analysis generation (grammar, analysis, slices,
/// automaton, parse table, state-item graph) and, on each edit, advances
/// to the next generation by *patching* instead of rebuilding whenever the
/// structural diff (grammar/GrammarDelta.h) permits:
///
///   - the automaton is rebuilt through Automaton::patch, which splices
///     the item closures of every provably-clean state and recomputes
///     all lookaheads — producing a machine byte-identical to a cold
///     build;
///   - the parse table is rebuilt through its patch constructor, which
///     translates the ACTION rows and conflict records of spliced states
///     whose lookahead vectors equal the old ones, falling back to the cold
///     per-state pass wherever the edit touched a precedence input the
///     old row's resolution consulted;
///   - the state-item graph is rebuilt through its patch constructor,
///     translating the adjacency rows of spliced states arithmetically
///     into a slack-bearing CSR layout that lets grown rows relocate
///     without a global relayout.
///
/// Two layers of reuse ride on top:
///
/// **Stable state ids.** Automaton state numbers are generation-local (a
/// structural edit renumbers the dirty cone). The session maintains a
/// parallel table of session-stable 64-bit ids: a kernel-matched state
/// keeps its id across generations — including across a *cold* fallback,
/// where the patch supplies no state map and the session re-derives one
/// by kernel matching (through the delta's production map when the delta
/// is valid, by the items' textual form otherwise) — a dead state's id
/// is tombstoned for one generation and then returns to a freelist, and
/// a fresh state draws from the freelist before minting a new id.
/// Delete-then-add within one edit therefore never collides, while long
/// edit sessions don't grow the id space without bound.
///
/// **Conflict-report remapping.** After a structural edit every
/// per-conflict `.crep` key misses (the key hashes automaton structure by
/// raw ids). The IncrementalHandoff exposes the delta and the state maps
/// to the finder, which then probes the *old* key and re-serves the old
/// report with all ids rewritten — but only after verifying, node by
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
#include "grammar/SubGrammar.h"
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
  /// Per new state: item layout identical to its old counterpart.
  const std::vector<bool> *SplicedNew = nullptr;
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
  /// unmapped. Mapping goes through (state, item) identity, so it is
  /// valid for any matched state, spliced or not.
  StateItemGraph::NodeId mapOldNode(StateItemGraph::NodeId OldN) const;

  /// Verifies that every node of \p OldTouched — the read set recorded
  /// during the original search — survives the edit unchanged: its state
  /// spliced, its item's production mapped, its lookahead set equal, and
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

/// Owns successive analysis generations over an edited grammar and
/// patches rather than rebuilds across structurally-mild edits. See the
/// file comment for the architecture.
class IncrementalSession {
public:
  /// What one advance() did, for bench records and diagnostics.
  struct AdvanceStats {
    bool Patched = false;        ///< automaton patched (else cold rebuild)
    std::string ColdReason;      ///< why cold, when !Patched
    AutomatonPatchStats Patch;   ///< valid when Patched
    TablePatchStats Table;       ///< valid when Patched
    GraphPatchStats Graph;       ///< valid when Patched
  };

  /// Builds the first generation cold.
  explicit IncrementalSession(Grammar G,
                              AutomatonKind Kind = AutomatonKind::Lalr1,
                              MetricsRegistry *Metrics = nullptr,
                              TraceRecorder *Trace = nullptr);

  /// Advances to \p NewG: computes the delta against the current
  /// generation, patches the automaton and graph when the delta permits,
  /// falls back to a cold rebuild otherwise. The previous generation is
  /// retained (for the handoff) until the advance after this one.
  const AdvanceStats &advance(Grammar NewG);

  const Grammar &grammar() const { return *Cur.G; }
  const GrammarAnalysis &analysis() const { return *Cur.A; }
  const SubGrammarIndex &slices() const { return *Cur.Slices; }
  const Automaton &automaton() const { return *Cur.M; }
  const ParseTable &table() const { return *Cur.T; }
  const StateItemGraph &graph() const { return *Cur.Graph; }

  /// The remap handoff for the finder, or null when the last advance fell
  /// back to a cold rebuild (or no advance has happened yet). Valid until
  /// the next advance().
  const IncrementalHandoff *handoff() const {
    return HandoffValid ? &Handoff : nullptr;
  }

  /// Session-stable id of current state \p State (see file comment).
  uint64_t stableStateId(unsigned State) const { return StableIds[State]; }
  const std::vector<uint64_t> &stableStateIds() const { return StableIds; }
  /// Ids currently parked on the freelist (tombstoned last advance or
  /// earlier, available to the next).
  size_t freeStateIdCount() const { return FreeIds.size(); }

  /// The lifecycle invariant: no id is live for two states at once or
  /// both live and parked on the freelist. Checked (asserted) after
  /// every advance; exposed so tests can check it after theirs.
  bool stableIdsDistinct() const;

private:
  struct Generation {
    std::unique_ptr<Grammar> G;
    std::unique_ptr<GrammarAnalysis> A;
    std::unique_ptr<SubGrammarIndex> Slices;
    std::unique_ptr<Automaton> M;
    std::unique_ptr<ParseTable> T;
    std::unique_ptr<StateItemGraph> Graph;
  };

  /// Grammar/analysis/slices of \p NewG (the delta needs these before the
  /// patch-or-cold decision).
  Generation front(Grammar NewG) const;

  uint64_t allocStableId();
  void updateStableIds(bool Patched, const Automaton &NewM);

  AutomatonKind Kind;
  MetricsRegistry *Metrics;
  TraceRecorder *Trace;

  Generation Cur, Prev;
  GrammarDelta LastDelta;
  std::vector<int> OldToNewState, NewToOldState;
  std::vector<bool> SplicedNew, LaCopied;
  IncrementalHandoff Handoff;
  bool HandoffValid = false;
  AdvanceStats Stats;

  std::vector<uint64_t> StableIds;
  std::vector<uint64_t> FreeIds;
  uint64_t NextStableId = 0;
};

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_INCREMENTALSESSION_H
