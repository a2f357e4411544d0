//===- tests/IncrementalAutomatonTest.cpp - Session state maps -*- C++ -*-===//
//
// Part of lalrcex.
//
// Direct coverage of IncrementalSession's generations and state maps,
// independent of the conflict-report oracle:
//
//   - each advance's automaton, parse table, and state-item graph are
//     byte-identical to a cold build across seeded edit streams (all ten
//     edit kinds), and the kernel-matched state maps pass a brute-force
//     oracle: every matched pair's old kernel maps through the
//     production map onto the new kernel, no unmatched new state has an
//     old kernel that maps onto its own, and the two maps are mutual
//     inverses;
//   - terminal-only edit streams: add/remove/rename-terminal must keep
//     the delta valid and match the majority of states;
//   - SubGrammarIndex slice monotonicity under the toggle-nonterminal
//     edit kind (grow on add, shrink on delete, untouched slices
//     identical by name-based hash).
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "cache/AnalysisCache.h"
#include "counterexample/IncrementalSession.h"
#include "grammar/GrammarDelta.h"
#include "grammar/GrammarEdit.h"
#include "grammar/SubGrammar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace lalrcex;

namespace {

/// The kernel of \p St mapped through \p Delta's production map and
/// sorted, or nullopt when some kernel production is unmapped.
std::optional<std::vector<Item>> mappedKernel(const Automaton::State &St,
                                              const GrammarDelta &Delta) {
  std::vector<Item> Out;
  for (unsigned I = 0; I != St.NumKernel; ++I) {
    int32_t NP = Delta.mapProd(St.Items[I].Prod);
    if (NP < 0)
      return std::nullopt;
    Out.emplace_back(uint32_t(NP), St.Items[I].Dot);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<Item> kernelOf(const Automaton::State &St) {
  return std::vector<Item>(St.Items.begin(), St.Items.begin() + St.NumKernel);
}

/// The state-map oracle over a handoff, by brute force over all state
/// pairs.
void expectStateMapsCorrect(const IncrementalHandoff &H,
                            unsigned StatesReused) {
  const Automaton &OldM = H.PrevGraph->automaton();
  const Automaton &NewM = H.Graph->automaton();
  const std::vector<int> &OldToNew = *H.OldToNewState;
  const std::vector<int> &NewToOld = *H.NewToOldState;
  ASSERT_EQ(OldToNew.size(), OldM.numStates());
  ASSERT_EQ(NewToOld.size(), NewM.numStates());

  unsigned Matched = 0;
  for (unsigned S = 0; S != NewM.numStates(); ++S) {
    std::vector<Item> NewKernel = kernelOf(NewM.state(S));
    int OS = NewToOld[S];
    if (OS >= 0) {
      ++Matched;
      ASSERT_LT(unsigned(OS), OldM.numStates());
      EXPECT_EQ(OldToNew[unsigned(OS)], int(S)) << "maps not inverse";
      EXPECT_EQ(mappedKernel(OldM.state(unsigned(OS)), *H.Delta), NewKernel)
          << "matched state " << S << " has a different kernel";
      continue;
    }
    for (unsigned O = 0; O != OldM.numStates(); ++O)
      EXPECT_NE(mappedKernel(OldM.state(O), *H.Delta), NewKernel)
          << "unmatched new state " << S << " has old counterpart " << O;
  }
  for (unsigned O = 0; O != OldM.numStates(); ++O) {
    int NS = OldToNew[O];
    if (NS >= 0) {
      ASSERT_LT(unsigned(NS), NewM.numStates());
      EXPECT_EQ(NewToOld[unsigned(NS)], int(O)) << "maps not inverse";
    }
  }
  EXPECT_EQ(Matched, StatesReused);
}

/// Advances \p Sess to \p Edited and asserts the new generation is
/// byte-identical to a cold build and, when a handoff is offered, that
/// its state maps pass the oracle. \p StatsOut, when set, receives the
/// advance stats for callers that aggregate across a stream (ASSERT_*
/// needs a void return type, hence no return value).
void expectAdvanceMatchesCold(
    IncrementalSession &Sess, const Grammar &Edited,
    const IncrementalSession::AdvanceStats **StatsOut = nullptr) {
  const IncrementalSession::AdvanceStats &St = Sess.advance(Edited);

  BuiltGrammar Cold(Edited);
  StateItemGraph ColdGraph(Cold.M);
  ASSERT_EQ(cache::serializeAnalysis(Sess.table()),
            cache::serializeAnalysis(Cold.T));
  ASSERT_EQ(cache::serializeGraph(Sess.graph()),
            cache::serializeGraph(ColdGraph));

  if (St.Patched) {
    const IncrementalHandoff *H = Sess.handoff();
    ASSERT_TRUE(H);
    EXPECT_EQ(H->Graph, &Sess.graph());
    expectStateMapsCorrect(*H, St.Patch.StatesReused);
  } else {
    EXPECT_FALSE(Sess.handoff());
    EXPECT_FALSE(St.ColdReason.empty());
  }
  if (StatsOut)
    *StatsOut = &St;
}

TEST(IncrementalAutomatonTest, PatchMatchesColdBuildOnCorpus) {
  struct Entry {
    const char *Name;
    uint64_t Seed;
  };
  size_t Patched = 0;
  for (const Entry &E : {Entry{"figure1", 21}, Entry{"figure3", 22},
                         Entry{"expr_prec_unresolved", 23},
                         Entry{"SQL.1", 24}, Entry{"SQL.3", 25},
                         Entry{"xi", 26}}) {
    SCOPED_TRACE(E.Name);
    Grammar G = loadCorpusGrammar(E.Name);
    EditableGrammar Model = EditableGrammar::fromGrammar(G);
    EditRng Rng(E.Seed);
    std::optional<Grammar> G0 = Model.build();
    ASSERT_TRUE(G0);
    IncrementalSession Sess(*G0);
    for (unsigned K = 0; K != 8; ++K) {
      std::optional<AppliedEdit> Edit =
          applyRandomEdit(Model, Rng, allEditKinds());
      if (!Edit)
        break;
      SCOPED_TRACE("edit #" + std::to_string(K) + ": " + Edit->Detail);
      std::optional<Grammar> Edited = Model.build();
      ASSERT_TRUE(Edited);
      expectAdvanceMatchesCold(Sess, *Edited);
      if (::testing::Test::HasFatalFailure())
        return;
      if (Sess.handoff())
        ++Patched;
    }
  }
  // State matching must actually engage across the stream; an oracle
  // that never gets a handoff verifies nothing.
  EXPECT_GT(Patched, 10u);
}

TEST(IncrementalAutomatonTest, PatchMatchesColdBuildOnRandomGrammars) {
  for (uint64_t Seed = 0; Seed != 25; ++Seed) {
    std::string Text = lalrcex::testing::randomGrammarText(
        Seed, 4 + unsigned(Seed % 5), 4);
    std::optional<Grammar> G = parseGrammarText(Text);
    ASSERT_TRUE(G) << Text;
    GrammarAnalysis A(*G);
    if (!A.isProductive(G->startSymbol()))
      continue;
    SCOPED_TRACE("random seed " + std::to_string(Seed));
    EditableGrammar Model = EditableGrammar::fromGrammar(*G);
    EditRng Rng(Seed + 500);
    IncrementalSession Sess(*G);
    for (unsigned K = 0; K != 3; ++K) {
      std::optional<AppliedEdit> Edit =
          applyRandomEdit(Model, Rng, allEditKinds());
      if (!Edit)
        break;
      SCOPED_TRACE("edit #" + std::to_string(K) + ": " + Edit->Detail);
      std::optional<Grammar> Edited = Model.build();
      ASSERT_TRUE(Edited);
      expectAdvanceMatchesCold(Sess, *Edited);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

TEST(IncrementalAutomatonTest, TerminalEditsSpliceAndMatchColdBuild) {
  // Terminal-set edits (add/remove/rename-terminal) change the
  // lookahead universe; the delta's terminal id map must still keep it
  // valid and the majority of states matched.
  struct Entry {
    const char *Name;
    uint64_t Seed;
  };
  size_t Advances = 0, PatchedAdvances = 0;
  size_t MatchedStates = 0, TotalStates = 0;
  for (const Entry &E : {Entry{"figure1", 31}, Entry{"figure3", 32},
                         Entry{"expr_prec_unresolved", 33},
                         Entry{"SQL.1", 34}, Entry{"xi", 35}}) {
    SCOPED_TRACE(E.Name);
    Grammar G = loadCorpusGrammar(E.Name);
    EditableGrammar Model = EditableGrammar::fromGrammar(G);
    EditRng Rng(E.Seed);
    std::optional<Grammar> G0 = Model.build();
    ASSERT_TRUE(G0);
    IncrementalSession Sess(*G0);
    for (unsigned K = 0; K != 8; ++K) {
      std::optional<AppliedEdit> Edit =
          applyRandomEdit(Model, Rng, terminalEditKinds());
      if (!Edit)
        break;
      SCOPED_TRACE("edit #" + std::to_string(K) + ": " + Edit->Detail);
      std::optional<Grammar> Edited = Model.build();
      ASSERT_TRUE(Edited);
      const IncrementalSession::AdvanceStats *St = nullptr;
      expectAdvanceMatchesCold(Sess, *Edited, &St);
      if (::testing::Test::HasFatalFailure())
        return;
      ++Advances;
      if (St->Patched) {
        ++PatchedAdvances;
        MatchedStates += St->Patch.StatesReused;
        TotalStates += Sess.automaton().numStates();
      }
    }
  }
  // The acceptance bar: terminal-only edits produce a valid delta on the
  // large majority of advances and match more than half of all states.
  ASSERT_GT(Advances, 20u);
  EXPECT_GE(PatchedAdvances * 4, Advances * 3);
  EXPECT_GT(MatchedStates * 2, TotalStates);
}

/// Maps a slice through \p SymbolMap, dropping unmapped members; returns
/// the mapped ids sorted ascending.
std::vector<int32_t> mapSlice(const std::vector<Symbol> &Slice,
                              const std::vector<int32_t> &SymbolMap) {
  std::vector<int32_t> Out;
  for (Symbol S : Slice)
    if (SymbolMap[size_t(S.id())] >= 0)
      Out.push_back(SymbolMap[size_t(S.id())]);
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<int32_t> sliceIds(const std::vector<Symbol> &Slice) {
  std::vector<int32_t> Out;
  for (Symbol S : Slice)
    Out.push_back(S.id());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Per old symbol id: a nonterminal whose slice reaches an *edited* one —
/// unpartnered, or whose production block does not map positionally onto
/// its partner's — computed from the delta's maps alone.
std::vector<bool> affectedOld(const Grammar &Old, const Grammar &New,
                              const SubGrammarIndex &OldIdx,
                              const GrammarDelta &D) {
  std::vector<Symbol> Edited;
  for (unsigned Id = Old.numTerminals(); Id != Old.numSymbols(); ++Id) {
    Symbol X{int32_t(Id)};
    Symbol Y = D.mapSymbol(X);
    bool Same = Y.valid() &&
                Old.productionsOf(X).size() == New.productionsOf(Y).size();
    for (size_t I = 0; Same && I != Old.productionsOf(X).size(); ++I)
      Same = D.mapProd(Old.productionsOf(X)[I]) ==
             int32_t(New.productionsOf(Y)[I]);
    if (!Same)
      Edited.push_back(X);
  }
  std::vector<bool> Affected(Old.numSymbols(), false);
  for (unsigned Id = Old.numTerminals(); Id != Old.numSymbols(); ++Id)
    for (Symbol E : Edited)
      if (OldIdx.reaches(Symbol(int32_t(Id)), E)) {
        Affected[Id] = true;
        break;
      }
  return Affected;
}

TEST(IncrementalAutomatonTest, SliceMonotonicityUnderToggleNonterminal) {
  // The toggle-nonterminal kind grows or shrinks the grammar wholesale.
  // Slices must move monotonically with it: an add edit only ever grows
  // a surviving nonterminal's slice, a delete edit only ever shrinks it,
  // and a nonterminal the delta marks unaffected keeps its slice (and
  // name-based slice hash) exactly.
  unsigned Adds = 0, Removes = 0;
  for (const char *Name : {"figure1", "SQL.1", "xi"}) {
    SCOPED_TRACE(Name);
    Grammar G = loadCorpusGrammar(Name);
    EditableGrammar Model = EditableGrammar::fromGrammar(G);
    EditRng Rng(77);
    std::optional<Grammar> Old = Model.build();
    ASSERT_TRUE(Old);
    for (unsigned K = 0; K != 6; ++K) {
      std::optional<AppliedEdit> Edit = applyRandomEdit(
          Model, Rng, std::vector<EditKind>{EditKind::ToggleNonterminal});
      if (!Edit)
        break;
      SCOPED_TRACE("edit #" + std::to_string(K) + ": " + Edit->Detail);
      std::optional<Grammar> New = Model.build();
      ASSERT_TRUE(New);
      SubGrammarIndex OldIdx(*Old), NewIdx(*New);
      GrammarDelta D = computeGrammarDelta(*Old, *New);
      if (!D.Valid) {
        // Legitimately cold: e.g. a removal orphaned another block and
        // its leftover references became implicit terminals. No symbol
        // map to check slices through.
        Old = std::move(New);
        continue;
      }
      bool IsAdd = Edit->Detail.rfind("add-nonterminal", 0) == 0;
      (IsAdd ? Adds : Removes) += 1;
      std::vector<bool> Affected = affectedOld(*Old, *New, OldIdx, D);
      for (unsigned Id = Old->numTerminals(); Id != Old->numSymbols();
           ++Id) {
        if (D.SymbolMap[Id] < 0)
          continue;
        Symbol OldNt{int32_t(Id)}, NewNt{D.SymbolMap[Id]};
        std::vector<int32_t> Mapped =
            mapSlice(OldIdx.slice(OldNt), D.SymbolMap);
        std::vector<int32_t> Now = sliceIds(NewIdx.slice(NewNt));
        if (IsAdd)
          // Every old slice member survives an add and stays reachable.
          EXPECT_TRUE(std::includes(Now.begin(), Now.end(),
                                    Mapped.begin(), Mapped.end()))
              << Old->name(OldNt);
        else
          // A delete never makes anything newly reachable.
          EXPECT_TRUE(std::includes(Mapped.begin(), Mapped.end(),
                                    Now.begin(), Now.end()))
              << Old->name(OldNt);
        if (!Affected[Id]) {
          EXPECT_EQ(Mapped, Now) << Old->name(OldNt);
          EXPECT_EQ(OldIdx.subGrammarHash(OldNt),
                    NewIdx.subGrammarHash(NewNt))
              << Old->name(OldNt);
        }
      }
      Old = std::move(New);
    }
  }
  // Both directions must have been exercised.
  EXPECT_GT(Adds, 0u);
  EXPECT_GT(Removes, 0u);
}

} // namespace
