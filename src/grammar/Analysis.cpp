//===- grammar/Analysis.cpp -----------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "grammar/Analysis.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>

using namespace lalrcex;

GrammarAnalysis::GrammarAnalysis(const Grammar &G, MetricsRegistry *Metrics,
                                 TraceRecorder *Trace)
    : G(G) {
  ScopedTimer Timer(Metrics, metric::TimeAnalysisNs);
  TraceSpan Span(Trace, "analysis");
  unsigned NullablePasses = computeNullable();
  unsigned FirstPasses = computeFirst();
  unsigned FollowPasses = computeFollow();
  unsigned MinYieldPasses = computeMinYield();
  computeReachable();
  buildSuffixTables();
  if (Metrics) {
    Metrics->add(metric::AnalysisRuns);
    Metrics->add(metric::AnalysisNullablePasses, NullablePasses);
    Metrics->add(metric::AnalysisFirstPasses, FirstPasses);
    Metrics->add(metric::AnalysisFollowPasses, FollowPasses);
    Metrics->add(metric::AnalysisMinYieldPasses, MinYieldPasses);
  }
}

void GrammarAnalysis::buildSuffixTables() {
  // FIRST and nullability of every production suffix, so the searches'
  // hot queries become table lookups.
  SuffixOffset.assign(G.numProductions(), 0);
  unsigned Total = 0;
  for (unsigned P = 0; P != G.numProductions(); ++P) {
    SuffixOffset[P] = Total;
    Total += unsigned(G.production(P).Rhs.size()) + 1;
  }
  SuffixWords = (G.numTerminals() + 63) / 64;
  SuffixFirst.assign(size_t(Total) * SuffixWords, 0);
  SuffixNullableBits.assign(Total, false);
  for (unsigned P = 0; P != G.numProductions(); ++P) {
    const std::vector<Symbol> &Rhs = G.production(P).Rhs;
    // Fill each row back-to-front so suffix (dot) extends suffix (dot+1)
    // with one union.
    unsigned Row = SuffixOffset[P];
    unsigned Len = unsigned(Rhs.size());
    SuffixNullableBits[Row + Len] = true;
    for (unsigned Dot = Len; Dot-- > 0;) {
      uint64_t *Out = &SuffixFirst[size_t(Row + Dot) * SuffixWords];
      const uint64_t *Sym = First[Rhs[Dot].id()].words();
      bool SymNullable = Nullable[Rhs[Dot].id()];
      for (unsigned W = 0; W != SuffixWords; ++W)
        Out[W] = SymNullable ? Sym[W] | Out[SuffixWords + W] : Sym[W];
      SuffixNullableBits[Row + Dot] =
          SymNullable && SuffixNullableBits[Row + Dot + 1];
    }
  }
}

unsigned GrammarAnalysis::computeNullable() {
  Nullable.assign(G.numSymbols(), false);
  unsigned Passes = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Passes;
    for (unsigned P = 0, E = G.numProductions(); P != E; ++P) {
      const Production &Prod = G.production(P);
      if (Nullable[Prod.Lhs.id()])
        continue;
      bool AllNullable = true;
      for (Symbol S : Prod.Rhs) {
        if (!Nullable[S.id()]) {
          AllNullable = false;
          break;
        }
      }
      if (AllNullable) {
        Nullable[Prod.Lhs.id()] = true;
        Changed = true;
      }
    }
  }
  return Passes;
}

unsigned GrammarAnalysis::computeFirst() {
  First.assign(G.numSymbols(), IndexSet(G.numTerminals()));
  for (unsigned T = 0; T != G.numTerminals(); ++T)
    First[T].insert(T);

  unsigned Passes = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Passes;
    for (unsigned P = 0, E = G.numProductions(); P != E; ++P) {
      const Production &Prod = G.production(P);
      IndexSet &Lhs = First[Prod.Lhs.id()];
      for (Symbol S : Prod.Rhs) {
        Changed |= Lhs.unionWith(First[S.id()]);
        if (!Nullable[S.id()])
          break;
      }
    }
  }
  return Passes;
}

unsigned GrammarAnalysis::computeFollow() {
  Follow.assign(G.numSymbols(), IndexSet(G.numTerminals()));
  Follow[G.augmentedStart().id()].insert(G.eof().id());
  unsigned Passes = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Passes;
    for (unsigned P = 0, E = G.numProductions(); P != E; ++P) {
      const Production &Prod = G.production(P);
      for (size_t I = 0; I != Prod.Rhs.size(); ++I) {
        Symbol S = Prod.Rhs[I];
        if (!G.isNonterminal(S))
          continue;
        IndexSet F =
            firstOfSequence(Prod.Rhs, I + 1, &Follow[Prod.Lhs.id()]);
        Changed |= Follow[S.id()].unionWith(F);
      }
    }
  }
  return Passes;
}

unsigned GrammarAnalysis::computeMinYield() {
  MinYield.assign(G.numSymbols(), Infinite);
  MinProdYield.assign(G.numProductions(), Infinite);
  MinProd.assign(G.numNonterminals(), Infinite);
  for (unsigned T = 0; T != G.numTerminals(); ++T)
    MinYield[T] = 1;

  unsigned Passes = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Passes;
    for (unsigned P = 0, E = G.numProductions(); P != E; ++P) {
      const Production &Prod = G.production(P);
      unsigned Sum = 0;
      bool Known = true;
      for (Symbol S : Prod.Rhs) {
        if (MinYield[S.id()] == Infinite) {
          Known = false;
          break;
        }
        Sum += MinYield[S.id()];
      }
      if (!Known)
        continue;
      if (Sum < MinProdYield[P]) {
        MinProdYield[P] = Sum;
        Changed = true;
      }
      if (Sum < MinYield[Prod.Lhs.id()]) {
        MinYield[Prod.Lhs.id()] = Sum;
        MinProd[Prod.Lhs.id() - G.numTerminals()] = P;
        Changed = true;
      }
    }
  }
  return Passes;
}

void GrammarAnalysis::computeReachable() {
  Reachable.assign(G.numSymbols(), false);
  Reachable[G.augmentedStart().id()] = true;
  Reachable[G.eof().id()] = true;
  std::vector<Symbol> Work = {G.augmentedStart()};
  while (!Work.empty()) {
    Symbol S = Work.back();
    Work.pop_back();
    if (G.isTerminal(S))
      continue;
    for (unsigned P : G.productionsOf(S)) {
      for (Symbol R : G.production(P).Rhs) {
        if (!Reachable[R.id()]) {
          Reachable[R.id()] = true;
          Work.push_back(R);
        }
      }
    }
  }
}

bool GrammarAnalysis::sequenceNullable(const std::vector<Symbol> &Syms,
                                       size_t From) const {
  for (size_t I = From, E = Syms.size(); I != E; ++I)
    if (!Nullable[Syms[I].id()])
      return false;
  return true;
}

IndexSet GrammarAnalysis::firstOfSequence(const std::vector<Symbol> &Syms,
                                          size_t From,
                                          const IndexSet *Tail) const {
  IndexSet Out(G.numTerminals());
  for (size_t I = From, E = Syms.size(); I != E; ++I) {
    Out.unionWith(First[Syms[I].id()]);
    if (!Nullable[Syms[I].id()])
      return Out;
  }
  if (Tail)
    Out.unionWith(*Tail);
  return Out;
}

bool GrammarAnalysis::sequenceCanBeginWith(const std::vector<Symbol> &Syms,
                                           size_t From, Symbol T,
                                           const IndexSet *Tail) const {
  assert(G.isTerminal(T) && "expected a terminal");
  for (size_t I = From, E = Syms.size(); I != E; ++I) {
    if (First[Syms[I].id()].contains(T.id()))
      return true;
    if (!Nullable[Syms[I].id()])
      return false;
  }
  return Tail && Tail->contains(T.id());
}

unsigned GrammarAnalysis::minProduction(Symbol Nonterminal) const {
  assert(G.isNonterminal(Nonterminal) && "expected a nonterminal");
  unsigned P = MinProd[Nonterminal.id() - G.numTerminals()];
  assert(P != Infinite && "nonterminal is unproductive");
  return P;
}
