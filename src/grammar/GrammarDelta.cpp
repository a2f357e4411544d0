//===- grammar/GrammarDelta.cpp - Structural diff of two grammars ---------===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "grammar/GrammarDelta.h"

#include <algorithm>

namespace lalrcex {

namespace {

/// True when old production \p P and new production \p Q are the same
/// rule under \p SymbolMap: mapped left-hand sides and right-hand sides
/// agree symbol for symbol. Precedence is deliberately ignored — it
/// affects conflict *resolution*, which the cold ParseTable build
/// handles, never automaton structure or report content.
bool sameProduction(const Grammar &Old, unsigned P, const Grammar &New,
                    unsigned Q, const std::vector<int32_t> &SymbolMap) {
  const Production &A = Old.production(P);
  const Production &B = New.production(Q);
  if (SymbolMap[A.Lhs.id()] != B.Lhs.id())
    return false;
  if (A.Rhs.size() != B.Rhs.size())
    return false;
  for (size_t I = 0; I != A.Rhs.size(); ++I)
    if (SymbolMap[A.Rhs[I].id()] != B.Rhs[I].id())
      return false;
  return true;
}

/// Longest common subsequence of two production-index lists under
/// sameProduction equality; emits the matched (old, new) pairs in
/// ascending order. Blocks are small (alternatives of one nonterminal),
/// so the quadratic table is fine.
void lcsMatch(const Grammar &Old, const std::vector<unsigned> &A,
              const Grammar &New, const std::vector<unsigned> &B,
              const std::vector<int32_t> &SymbolMap,
              std::vector<std::pair<unsigned, unsigned>> &Pairs) {
  size_t N = A.size(), M = B.size();
  std::vector<uint32_t> L((N + 1) * (M + 1), 0);
  auto At = [&](size_t I, size_t J) -> uint32_t & { return L[I * (M + 1) + J]; };
  for (size_t I = N; I-- > 0;)
    for (size_t J = M; J-- > 0;) {
      if (sameProduction(Old, A[I], New, B[J], SymbolMap))
        At(I, J) = At(I + 1, J + 1) + 1;
      else
        At(I, J) = std::max(At(I + 1, J), At(I, J + 1));
    }
  size_t I = 0, J = 0;
  while (I < N && J < M) {
    if (sameProduction(Old, A[I], New, B[J], SymbolMap)) {
      Pairs.emplace_back(A[I], B[J]);
      ++I, ++J;
    } else if (At(I + 1, J) >= At(I, J + 1)) {
      ++I;
    } else {
      ++J;
    }
  }
}

} // namespace

bool GrammarDelta::translateTerminalSet(const IndexSet &OldSet,
                                        IndexSet &Out) const {
  IndexSet Translated(NewNumTerminals);
  bool Ok = true;
  OldSet.forEach([&](unsigned T) {
    if (!Ok)
      return;
    int32_t NT = T < SymbolMap.size() ? SymbolMap[T] : -1;
    if (NT < 0 || unsigned(NT) >= NewNumTerminals) {
      Ok = false;
      return;
    }
    Translated.insert(unsigned(NT));
  });
  if (Ok)
    Out = std::move(Translated);
  return Ok;
}

GrammarDelta computeGrammarDelta(const Grammar &Old, const Grammar &New) {
  GrammarDelta D;
  D.SymbolMap.assign(Old.numSymbols(), -1);
  D.InvSymbolMap.assign(New.numSymbols(), -1);
  D.ProdMap.assign(Old.numProductions(), -1);
  D.InvProdMap.assign(New.numProductions(), -1);

  D.OldNumTerminals = Old.numTerminals();
  D.NewNumTerminals = New.numTerminals();

  // Terminals: by name, then leftover pairs positionally (renames) — the
  // same scheme as nonterminals below. "$" (eof) is id 0 in every
  // grammar and always pairs with itself. Terminal ids index lookahead
  // bitsets, so consumers translate bitsets through this map; that
  // translation preserves the searches' iteration order only when the
  // map is monotone, checked right after matching.
  D.SymbolMap[0] = 0;
  D.InvSymbolMap[0] = 0;
  for (unsigned T = 1; T < Old.numTerminals(); ++T) {
    Symbol Cand = New.symbolByName(Old.name(Symbol(int32_t(T))));
    if (Cand.valid() && New.isTerminal(Cand) && D.InvSymbolMap[Cand.id()] < 0) {
      D.SymbolMap[T] = Cand.id();
      D.InvSymbolMap[Cand.id()] = int32_t(T);
    }
  }
  {
    std::vector<int32_t> OldFree, NewFree;
    for (unsigned T = 1; T < Old.numTerminals(); ++T)
      if (D.SymbolMap[T] < 0)
        OldFree.push_back(int32_t(T));
    for (unsigned T = 1; T < New.numTerminals(); ++T)
      if (D.InvSymbolMap[T] < 0)
        NewFree.push_back(int32_t(T));
    for (size_t I = 0; I != OldFree.size() && I != NewFree.size(); ++I) {
      D.SymbolMap[OldFree[I]] = NewFree[I];
      D.InvSymbolMap[NewFree[I]] = OldFree[I];
    }
  }
  {
    int32_t LastT = -1;
    for (unsigned T = 0; T != Old.numTerminals(); ++T) {
      if (D.SymbolMap[T] < 0)
        continue;
      if (D.SymbolMap[T] <= LastT) {
        D.InvalidReason = "terminal map not monotone";
        return D;
      }
      LastT = D.SymbolMap[T];
    }
  }

  D.TermMapIdentity = Old.numTerminals() == New.numTerminals();
  for (unsigned T = 0; T != Old.numTerminals(); ++T)
    if (D.SymbolMap[T] != int32_t(T))
      D.TermMapIdentity = false;

  // Nonterminals: by name, then leftover pairs positionally (renames).
  // The augmented start symbols always pair with each other: both are
  // synthetic, and state matching needs state 0's kernel to map.
  D.SymbolMap[Old.augmentedStart().id()] = New.augmentedStart().id();
  D.InvSymbolMap[New.augmentedStart().id()] = Old.augmentedStart().id();
  for (unsigned Id = Old.numTerminals(); Id != Old.numSymbols(); ++Id) {
    if (int32_t(Id) == Old.augmentedStart().id())
      continue;
    Symbol Cand = New.symbolByName(Old.name(Symbol(Id)));
    if (Cand.valid() && New.isNonterminal(Cand) &&
        Cand != New.augmentedStart() && D.InvSymbolMap[Cand.id()] < 0) {
      D.SymbolMap[Id] = Cand.id();
      D.InvSymbolMap[Cand.id()] = int32_t(Id);
    }
  }
  {
    std::vector<int32_t> OldFree, NewFree;
    for (unsigned Id = Old.numTerminals(); Id != Old.numSymbols(); ++Id)
      if (D.SymbolMap[Id] < 0)
        OldFree.push_back(int32_t(Id));
    for (unsigned Id = New.numTerminals(); Id != New.numSymbols(); ++Id)
      if (D.InvSymbolMap[Id] < 0)
        NewFree.push_back(int32_t(Id));
    for (size_t I = 0; I != OldFree.size() && I != NewFree.size(); ++I) {
      D.SymbolMap[OldFree[I]] = NewFree[I];
      D.InvSymbolMap[NewFree[I]] = OldFree[I];
    }
  }

  // Production blocks: a positional match maps 1:1, otherwise an LCS
  // salvages what still maps.
  for (unsigned Id = Old.numTerminals(); Id != Old.numSymbols(); ++Id) {
    if (D.SymbolMap[Id] < 0)
      continue;
    Symbol OldNt{int32_t(Id)}, NewNt{D.SymbolMap[Id]};
    const std::vector<unsigned> &A = Old.productionsOf(OldNt);
    const std::vector<unsigned> &B = New.productionsOf(NewNt);
    bool Positional = A.size() == B.size();
    for (size_t I = 0; Positional && I != A.size(); ++I)
      Positional = sameProduction(Old, A[I], New, B[I], D.SymbolMap);
    if (Positional) {
      for (size_t I = 0; I != A.size(); ++I) {
        D.ProdMap[A[I]] = int32_t(B[I]);
        D.InvProdMap[B[I]] = int32_t(A[I]);
      }
      continue;
    }
    std::vector<std::pair<unsigned, unsigned>> Pairs;
    lcsMatch(Old, A, New, B, D.SymbolMap, Pairs);
    for (auto [P, Q] : Pairs) {
      D.ProdMap[P] = int32_t(Q);
      D.InvProdMap[Q] = int32_t(P);
    }
  }

  // Kernels are ordered by production index; a mapped old kernel is a
  // lookup key for state matching only when the map preserves that order.
  int32_t Last = -1;
  for (unsigned P = 0; P != Old.numProductions(); ++P) {
    if (D.ProdMap[P] < 0)
      continue;
    if (D.ProdMap[P] <= Last) {
      D.InvalidReason = "production map not monotone";
      D.ProdMap.assign(Old.numProductions(), -1);
      D.InvProdMap.assign(New.numProductions(), -1);
      return D;
    }
    Last = D.ProdMap[P];
  }

  D.Valid = true;
  return D;
}

} // namespace lalrcex
