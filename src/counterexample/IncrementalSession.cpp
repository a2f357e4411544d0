//===- counterexample/IncrementalSession.cpp -------------------*- C++ -*-===//
//
// Part of lalrcex.
//
// Generation management for incremental re-analysis, plus the
// verification and rewriting layer that lets a stored conflict report
// outlive a structural edit. The correctness contract of every helper
// here is *byte-identity*: a remapped artifact must equal what a cold
// recompute over the new grammar would produce, and anything the helpers
// cannot prove falls back to that recompute.
//
//===----------------------------------------------------------------------===//

#include "counterexample/IncrementalSession.h"

#include "counterexample/NonunifyingBuilder.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>

using namespace lalrcex;

namespace {

/// Cross-generation certifier for the analysis-side artifacts a search
/// consults about a symbol. The graph rows pin down every *structural*
/// read; what remains are GrammarAnalysis queries (FIRST of a suffix,
/// suffix nullability — all aggregates of per-symbol FIRST/nullable with
/// terminal ids stable across a valid delta) and the minimal-derivation
/// completions of NonunifyingBuilder (epsilon derivations and derivations
/// beginning with the conflict terminal). The former are compared
/// semantically, set against set; the latter by running the *actual*
/// choice fixpoints of both generations and demanding the chosen
/// production (and continuation position) map through the delta,
/// recursively over the chosen subtrees. Comparing fixpoint results
/// rather than derivation cones is what lets a conflict survive an edit
/// elsewhere in a consulted symbol's cone: the edit is harmless exactly
/// when it changes no answer, and that is what is checked.
class AnalysisCertifier {
public:
  AnalysisCertifier(const Grammar &OldG, const GrammarAnalysis &OldA,
                    const Grammar &NewG, const GrammarAnalysis &NewA,
                    const GrammarDelta &Delta, Symbol ConflictTerm)
      : OldG(OldG), OldA(OldA), NewA(NewA), Delta(Delta), Term(ConflictTerm),
        OldMin(OldG), NewMin(NewG) {
    OldMin.beginningWith(OldG, Term, OldBeginCost, OldBest);
    // The conflict terminal is an old-generation symbol; the new
    // generation's fixpoint must run on its image. An unmapped terminal
    // leaves NewBest empty, which fails certifyBegin — and certifyBegin
    // is only consulted when some touched FIRST set contains Term, whose
    // translation would already have failed.
    NewTerm = Delta.mapSymbol(Term);
    if (NewTerm.valid())
      NewMin.beginningWith(NewG, NewTerm, NewBeginCost, NewBest);
    SymOk.assign(OldG.numSymbols(), Unknown);
    EpsOk.assign(OldG.numSymbols(), Unknown);
    BeginOk.assign(OldG.numSymbols(), Unknown);
  }

  /// True when every query the searches can make about \p X answers
  /// identically across the edit (an old-generation symbol).
  bool certify(Symbol X) {
    if (!OldG.isNonterminal(X)) {
      // A terminal's FIRST is itself and it is never nullable; both are
      // preserved by any mapping, so a mapped terminal is certified.
      return Delta.mapSymbol(X).valid();
    }
    int8_t &M = SymOk[X.id()];
    if (M != Unknown)
      return M == Ok;
    M = Fail;
    Symbol Y = Delta.mapSymbol(X);
    if (!Y.valid())
      return false;
    if (OldA.isNullable(X) != NewA.isNullable(Y))
      return false;
    if (!firstEqual(OldA.first(X), NewA.first(Y)))
      return false;
    if (OldA.isNullable(X) && !certifyEps(X))
      return false;
    if (OldA.first(X).contains(unsigned(Term.id())) && !certifyBegin(X))
      return false;
    M = Ok;
    return true;
  }

private:
  enum : int8_t { Unknown = 0, Ok = 1, Fail = 2 };

  /// Semantic FIRST-set equality across the edit: elementwise through the
  /// delta's terminal map (a plain compare until a terminal edit makes
  /// the universes differ).
  bool firstEqual(const IndexSet &OldS, const IndexSet &NewS) const {
    if (Delta.TermMapIdentity)
      return OldS == NewS;
    IndexSet Tmp;
    return Delta.translateTerminalSet(OldS, Tmp) && Tmp == NewS;
  }

  /// The minimal epsilon derivation of \p X must be the delta image of
  /// the new generation's: same chosen production, recursively. Memoized;
  /// sound to fail-closed on revisit since costs strictly decrease into
  /// children (no cycles in a minimal tree).
  bool certifyEps(Symbol X) {
    int8_t &M = EpsOk[X.id()];
    if (M != Unknown)
      return M == Ok;
    M = Fail;
    Symbol Y = Delta.mapSymbol(X);
    if (!Y.valid())
      return false;
    unsigned P = OldMin.EpsProd[X.id()];
    unsigned Q = NewMin.EpsProd[Y.id()];
    if (P == GrammarAnalysis::Infinite || Q == GrammarAnalysis::Infinite)
      return false;
    if (Delta.mapProd(P) != int32_t(Q))
      return false;
    for (Symbol S : OldG.production(P).Rhs)
      if (!certifyEps(S))
        return false;
    M = Ok;
    return true;
  }

  /// Likewise for the minimal derivation of \p X beginning with the
  /// conflict terminal: mapped production, same continuation position,
  /// epsilon-certified symbols before it, recursion at it. Symbols after
  /// the continuation stay unexpanded leaves, which the production map
  /// already proved rename consistently.
  bool certifyBegin(Symbol X) {
    if (!NewTerm.valid())
      return false; // no new-generation fixpoint to compare against
    if (X == Term)
      return true; // the continuation bottomed out on the terminal itself
    int8_t &M = BeginOk[X.id()];
    if (M != Unknown)
      return M == Ok;
    M = Fail;
    Symbol Y = Delta.mapSymbol(X);
    if (!Y.valid())
      return false;
    const MinimalDerivationChoices::BeginChoice &C = OldBest[X.id()];
    const MinimalDerivationChoices::BeginChoice &D = NewBest[Y.id()];
    if (C.Prod == GrammarAnalysis::Infinite ||
        D.Prod == GrammarAnalysis::Infinite)
      return false;
    if (Delta.mapProd(C.Prod) != int32_t(D.Prod) || C.Pos != D.Pos)
      return false;
    const Production &P = OldG.production(C.Prod);
    for (unsigned J = 0; J != C.Pos; ++J)
      if (!certifyEps(P.Rhs[J]))
        return false;
    if (!certifyBegin(P.Rhs[C.Pos]))
      return false;
    M = Ok;
    return true;
  }

  const Grammar &OldG;
  const GrammarAnalysis &OldA;
  const GrammarAnalysis &NewA;
  const GrammarDelta &Delta;
  Symbol Term;
  Symbol NewTerm;
  MinimalDerivationChoices OldMin, NewMin;
  std::vector<unsigned> OldBeginCost, NewBeginCost;
  std::vector<MinimalDerivationChoices::BeginChoice> OldBest, NewBest;
  std::vector<int8_t> SymOk, EpsOk, BeginOk;
};

} // namespace

//===----------------------------------------------------------------------===//
// IncrementalHandoff: conflict/node mapping
//===----------------------------------------------------------------------===//

bool IncrementalHandoff::mapConflictToOld(const Conflict &NewC,
                                          Conflict &OldC) const {
  if (NewC.State >= NewToOldState->size())
    return false;
  int OS = (*NewToOldState)[NewC.State];
  if (OS < 0)
    return false;
  OldC.K = NewC.K;
  OldC.State = unsigned(OS);
  // The token maps through the inverse terminal map (the identity until
  // a terminal edit); a conflict on a terminal the old generation never
  // had has no stored report to find.
  OldC.Token = Delta->invMapSymbol(NewC.Token);
  if (!OldC.Token.valid())
    return false;
  OldC.R = NewC.R;
  int32_t RP = Delta->invMapProd(NewC.ReduceProd);
  if (RP < 0)
    return false;
  OldC.ReduceProd = unsigned(RP);
  if (NewC.K == Conflict::ReduceReduce) {
    int32_t OP = Delta->invMapProd(NewC.OtherProd);
    if (OP < 0)
      return false;
    OldC.OtherProd = unsigned(OP);
    // RR conflicts carry no shift item; the table leaves the default.
    OldC.ShiftItm = NewC.ShiftItm;
  } else {
    OldC.OtherProd = NewC.OtherProd; // unused for S/R, always 0
    int32_t SP = Delta->invMapProd(NewC.ShiftItm.Prod);
    if (SP < 0)
      return false;
    OldC.ShiftItm = Item(uint32_t(SP), NewC.ShiftItm.Dot);
  }
  return true;
}

StateItemGraph::NodeId
IncrementalHandoff::mapOldNode(StateItemGraph::NodeId OldN) const {
  if (OldN >= PrevGraph->numNodes())
    return StateItemGraph::InvalidNode;
  unsigned OS = PrevGraph->stateOf(OldN);
  int NS = (*OldToNewState)[OS];
  if (NS < 0)
    return StateItemGraph::InvalidNode;
  const Item &OI = PrevGraph->itemOf(OldN);
  int32_t NP = Delta->mapProd(OI.Prod);
  if (NP < 0)
    return StateItemGraph::InvalidNode;
  return Graph->nodeFor(unsigned(NS), Item(uint32_t(NP), OI.Dot));
}

bool IncrementalHandoff::verifyTouched(
    Symbol ConflictTerm, const std::vector<uint32_t> &OldTouched,
    std::vector<uint32_t> *NewTouched) const {
  // An empty read set means "recorded nothing", not "read nothing" — a
  // search always reads at least the conflict nodes. Refuse it.
  if (OldTouched.empty())
    return false;

  // Order-sensitive row comparison: the replayed search iterates rows in
  // storage order, so a row matches only when the mapped old entries
  // appear in exactly the new row's order. (Set equality would admit a
  // reordering that changes search tie-breaking.)
  auto rowEqual = [&](StateItemGraph::NodeRange OldRow,
                      StateItemGraph::NodeRange NewRow) {
    if (OldRow.size() != NewRow.size())
      return false;
    const StateItemGraph::NodeId *NI = NewRow.begin();
    for (StateItemGraph::NodeId O : OldRow) {
      StateItemGraph::NodeId Mapped = mapOldNode(O);
      if (Mapped == StateItemGraph::InvalidNode || Mapped != *NI++)
        return false;
    }
    return true;
  };

  // Built on the first surviving node: two choice fixpoints per
  // generation, all amortized across the nodes by per-symbol memos.
  std::optional<AnalysisCertifier> Cert;

  std::vector<uint32_t> Translated;
  Translated.reserve(OldTouched.size());
  for (uint32_t OldN : OldTouched) {
    if (OldN >= PrevGraph->numNodes())
      return false;
    unsigned OS = PrevGraph->stateOf(OldN);
    int NS = (*OldToNewState)[OS];
    // A matched state suffices: the lookahead/row/analysis checks below
    // are the actual proof that the node's content survived.
    if (NS < 0)
      return false;
    const Item &OI = PrevGraph->itemOf(OldN);
    int32_t NP = Delta->mapProd(OI.Prod);
    if (NP < 0)
      return false;
    StateItemGraph::NodeId NewN =
        Graph->nodeFor(unsigned(NS), Item(uint32_t(NP), OI.Dot));
    if (NewN == StateItemGraph::InvalidNode)
      return false;

    // Lookahead equality through the terminal map: a plain compare until
    // a terminal edit makes the universes differ, elementwise translation
    // after (a set containing an unmapped terminal cannot match anything
    // the new generation computes).
    if (Delta->TermMapIdentity) {
      if (!(PrevGraph->lookahead(OldN) == Graph->lookahead(NewN)))
        return false;
    } else {
      IndexSet Tmp;
      if (!Delta->translateTerminalSet(PrevGraph->lookahead(OldN), Tmp) ||
          !(Tmp == Graph->lookahead(NewN)))
        return false;
    }

    StateItemGraph::NodeId OldF = PrevGraph->forwardTransition(OldN);
    StateItemGraph::NodeId NewF = Graph->forwardTransition(NewN);
    if (OldF == StateItemGraph::InvalidNode ||
        NewF == StateItemGraph::InvalidNode) {
      if (OldF != NewF)
        return false;
    } else if (mapOldNode(OldF) != NewF) {
      return false;
    }

    if (!rowEqual(PrevGraph->productionSteps(OldN),
                  Graph->productionSteps(NewN)) ||
        !rowEqual(PrevGraph->reverseTransitions(OldN),
                  Graph->reverseTransitions(NewN)) ||
        !rowEqual(PrevGraph->reverseProductionSteps(OldN),
                  Graph->reverseProductionSteps(NewN)))
      return false;

    // Analysis-side certification: every query the searches can make
    // about a symbol of this item's production must answer identically
    // across the edit.
    if (!Cert)
      Cert.emplace(*PrevG, PrevGraph->automaton().analysis(),
                   Graph->grammar(), Graph->automaton().analysis(), *Delta,
                   ConflictTerm);
    for (Symbol S : PrevG->production(OI.Prod).Rhs)
      if (!Cert->certify(S))
        return false;

    Translated.push_back(NewN);
  }

  if (NewTouched) {
    // New node ids need not be ascending even though the old ones were
    // (an edit can renumber states); restore the canonical order.
    std::sort(Translated.begin(), Translated.end());
    *NewTouched = std::move(Translated);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// IncrementalHandoff: report rewriting
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds a derivation tree under the delta's symbol/production maps.
/// Null when any symbol or production is unmapped. That the mapped tree
/// is exactly what a recompute over the new grammar would build is the
/// caller's obligation: remapReport runs only after verifyTouched has
/// certified both the graph rows behind the tree's path portion and the
/// minimal-derivation choices behind its completion subtrees.
DerivPtr remapDerivation(const GrammarDelta &Delta, const DerivPtr &D) {
  if (D->isDot())
    return Derivation::dot();
  if (D->isLeaf()) {
    Symbol S = Delta.mapSymbol(D->symbol());
    return S.valid() ? Derivation::leaf(S) : nullptr;
  }
  Symbol Lhs = Delta.mapSymbol(D->symbol());
  unsigned OldProd = D->productionIndex();
  int32_t NP = Delta.mapProd(OldProd);
  if (!Lhs.valid() || NP < 0)
    return nullptr;
  std::vector<DerivPtr> Children;
  Children.reserve(D->children().size());
  for (const DerivPtr &C : D->children()) {
    DerivPtr Mapped = remapDerivation(Delta, C);
    if (!Mapped)
      return nullptr;
    Children.push_back(std::move(Mapped));
  }
  return Derivation::node(Lhs, unsigned(NP), std::move(Children));
}

bool remapDerivList(const GrammarDelta &Delta,
                    const std::vector<DerivPtr> &In,
                    std::vector<DerivPtr> &Out) {
  Out.reserve(In.size());
  for (const DerivPtr &D : In) {
    DerivPtr Mapped = remapDerivation(Delta, D);
    if (!Mapped)
      return false;
    Out.push_back(std::move(Mapped));
  }
  return true;
}

} // namespace

bool IncrementalHandoff::remapReport(const ConflictReport &OldRep,
                                     const Conflict &OldC,
                                     const Conflict &NewC,
                                     ConflictReport &Out) const {
  ConflictReport Rep;
  Rep.TheConflict = NewC;
  Rep.Status = OldRep.Status;
  // ShiftItem mirrors what examineImpl sets: the conflict's shift item
  // for S/R, the default item otherwise. A stored report whose field
  // disagrees (a degraded setup-failure report) is not worth remapping.
  if (NewC.K == Conflict::ShiftReduce) {
    if (!(OldRep.ShiftItem == OldC.ShiftItm))
      return false;
    Rep.ShiftItem = NewC.ShiftItm;
  } else if (!(OldRep.ShiftItem == Item())) {
    return false;
  }
  // Timings and effort are copied verbatim, exactly as the whole-set warm
  // path re-serves a cold run's timing fields.
  Rep.Seconds = OldRep.Seconds;
  Rep.Configurations = OldRep.Configurations;
  Rep.PeakBytes = OldRep.PeakBytes;
  Rep.UnifyingOutcome = OldRep.UnifyingOutcome;
  Rep.Failure = OldRep.Failure;
  Rep.Lss = OldRep.Lss;
  if (OldRep.Example) {
    Counterexample Ex;
    Ex.Unifying = OldRep.Example->Unifying;
    Ex.PrefixShared = OldRep.Example->PrefixShared;
    Ex.Root = Delta->mapSymbol(OldRep.Example->Root);
    if (!Ex.Root.valid())
      return false;
    if (!remapDerivList(*Delta, OldRep.Example->Derivs1, Ex.Derivs1) ||
        !remapDerivList(*Delta, OldRep.Example->Derivs2, Ex.Derivs2))
      return false;
    Rep.Example = std::move(Ex);
  }
  Out = std::move(Rep);
  return true;
}

//===----------------------------------------------------------------------===//
// IncrementalSession
//===----------------------------------------------------------------------===//

IncrementalSession::IncrementalSession(Grammar G, AutomatonKind InKind,
                                       MetricsRegistry *InMetrics,
                                       TraceRecorder *InTrace)
    : Kind(InKind), Metrics(InMetrics), Trace(InTrace) {
  Cur = build(std::move(G));
}

IncrementalSession::Generation IncrementalSession::build(Grammar G) const {
  Generation Gen;
  Gen.G = std::make_unique<Grammar>(std::move(G));
  Gen.A = std::make_unique<GrammarAnalysis>(*Gen.G, Metrics, Trace);
  AutomatonOptions MO;
  MO.Kind = Kind;
  MO.Metrics = Metrics;
  MO.Trace = Trace;
  Gen.M = std::make_unique<Automaton>(*Gen.G, *Gen.A, MO);
  Gen.T = std::make_unique<ParseTable>(*Gen.M);
  Gen.Graph = std::make_unique<StateItemGraph>(*Gen.M, Metrics, Trace);
  return Gen;
}

void IncrementalSession::matchStates() {
  const Automaton &OldM = *Prev.M, &NewM = *Cur.M;
  // An old kernel whose productions all map becomes, through the
  // monotone production map, a sorted new-grammar kernel; the new state
  // with exactly that kernel is its counterpart. Kernels are distinct
  // within a machine and the map is injective, so the match is 1:1.
  std::unordered_map<std::vector<Item>, unsigned, KernelHash> OldByKernel;
  OldByKernel.reserve(OldM.numStates());
  std::vector<Item> Kernel;
  for (unsigned OS = 0, OE = OldM.numStates(); OS != OE; ++OS) {
    const Automaton::State &St = OldM.state(OS);
    Kernel.clear();
    for (unsigned I = 0; I != St.NumKernel; ++I) {
      int32_t NP = LastDelta.mapProd(St.Items[I].Prod);
      if (NP < 0)
        break;
      Kernel.emplace_back(uint32_t(NP), St.Items[I].Dot);
    }
    if (Kernel.size() != St.NumKernel)
      continue;
    assert(std::is_sorted(Kernel.begin(), Kernel.end()) &&
           "a monotone production map keeps kernels sorted");
    OldByKernel.emplace(Kernel, OS);
  }

  OldToNewState.assign(OldM.numStates(), -1);
  NewToOldState.assign(NewM.numStates(), -1);
  for (unsigned S = 0, SE = NewM.numStates(); S != SE; ++S) {
    const Automaton::State &St = NewM.state(S);
    Kernel.assign(St.Items.begin(), St.Items.begin() + St.NumKernel);
    auto It = OldByKernel.find(Kernel);
    if (It == OldByKernel.end())
      continue;
    NewToOldState[S] = int(It->second);
    OldToNewState[It->second] = int(S);
    ++Stats.Patch.StatesReused;
  }
}

const IncrementalSession::AdvanceStats &
IncrementalSession::advance(Grammar NewG) {
  Stats = AdvanceStats{};
  HandoffValid = false;

  Generation Next = build(std::move(NewG));
  LastDelta = computeGrammarDelta(*Cur.G, *Next.G);
  Prev = std::move(Cur);
  Cur = std::move(Next);

  if (!LastDelta.Valid) {
    Stats.ColdReason = LastDelta.InvalidReason;
    return Stats;
  }
  // Canonical LR(1) states share LR(0) kernels, so a kernel names no
  // unique state there.
  if (Kind != AutomatonKind::Lalr1) {
    Stats.ColdReason = "kernel matching needs LALR(1) states";
    return Stats;
  }
  matchStates();
  Stats.Patched = true;
  Handoff.PrevG = Prev.G.get();
  Handoff.PrevTable = Prev.T.get();
  Handoff.PrevGraph = Prev.Graph.get();
  Handoff.Delta = &LastDelta;
  Handoff.OldToNewState = &OldToNewState;
  Handoff.NewToOldState = &NewToOldState;
  Handoff.Graph = Cur.Graph.get();
  HandoffValid = true;
  return Stats;
}
