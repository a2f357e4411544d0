//===- earley/DerivationCounter.cpp --------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
// Derivation counting solves a monotone system over two kinds of
// subproblems, saturated at the cap:
//
//   sym(X, i, j):        #trees of symbol X yielding Input[i..j)
//   path(P, d, k, j):    #ways rhs(P)[d..] yields Input[k..j)
//
// sym(X,i,j) = [terminal or self-scan match] + sum over productions P of X
//              of path(P, 0, i, j);
// path(P,d,k,j) = sum over split m of sym(rhs[d],k,m) * path(P,d+1,m,j),
//                 where the last rhs symbol must end at j.
//
// Cells are discovered on demand from the root cell. Each round of the
// solver walks them depth-first from the root with an explicit stack and
// evaluates every cell after the cells it reads (post-order), so a value
// travels from the leaves to the root in one round. A cell read while it
// is still on the stack is a cycle (A -> A, or a nullable loop within one
// span); such a round only yields lower bounds, and the solver repeats
// rounds until nothing changes. Iterating to the least fixpoint makes
// cyclic grammars saturate at the cap instead of recursing forever, which
// is exactly the desired "infinitely many trees counts as ambiguous"
// behavior. Cells the last round of a solve visited hold their final
// values and are never re-evaluated.
//
//===----------------------------------------------------------------------===//

#include "earley/DerivationCounter.h"

#include <cassert>
#include <unordered_map>
#include <vector>

using namespace lalrcex;

DerivationCounter::DerivationCounter(const Grammar &G, const GrammarAnalysis &Analysis)
    : G(G), Analysis(Analysis) {
  assert(&Analysis.grammar() == &G && "analysis built for another grammar");
}

namespace {

/// Cell keys: tag bit 63; sym cells pack (symbol, i, j), path cells pack
/// (production, dot, k, j). Positions fit in 16 bits (inputs are
/// counterexamples, not source files).
uint64_t symKey(int32_t Sym, unsigned I, unsigned J) {
  return (uint64_t(1) << 63) | (uint64_t(uint32_t(Sym)) << 32) | (I << 16) |
         J;
}
uint64_t pathKey(unsigned Prod, unsigned Dot, unsigned K, unsigned J) {
  return (uint64_t(Prod) << 40) | (uint64_t(Dot) << 32) | (K << 16) | J;
}

struct Counter {
  const Grammar &G;
  const std::vector<Symbol> &Input;
  unsigned Cap;

  struct Cell {
    uint64_t Key;
    unsigned Value = 0;
    unsigned Round = 0; // last round that visited the cell
    bool OnStack = false;
    bool Final = false;
  };
  /// A suspended evaluation: the split point or production it resumes at
  /// and the sum so far.
  struct Frame {
    uint32_t Cell;
    unsigned Cursor;
    unsigned Total;
  };

  std::unordered_map<uint64_t, uint32_t> Index;
  std::vector<Cell> Cells;
  std::vector<Frame> Stack;
  std::vector<uint32_t> Solving; // cells visited by the current solve
  unsigned Round = 0;
  unsigned FirstRound = 0; // the current solve's first round
  bool Cyclic = false;  // this round read a cell still on the stack
  bool Changed = false; // this round raised some cell's value

  Counter(const Grammar &G, const std::vector<Symbol> &Input, unsigned Cap)
      : G(G), Input(Input), Cap(Cap) {}

  unsigned satAdd(unsigned A, unsigned B) const {
    return A + B >= Cap ? Cap : A + B;
  }
  unsigned satMul(unsigned A, unsigned B) const {
    if (A == 0 || B == 0)
      return 0;
    return A >= (Cap + B - 1) / B ? Cap : A * B;
  }

  /// Reads cell \p Key into \p Value if this round already has it (or it
  /// is final, or on the stack: a cycle). Otherwise pushes a frame for it
  /// and returns false; the caller suspends and repeats the read once the
  /// frame is done.
  bool read(uint64_t Key, unsigned &Value) {
    auto [It, Inserted] = Index.emplace(Key, uint32_t(Cells.size()));
    if (Inserted)
      Cells.push_back({Key});
    uint32_t Id = It->second;
    Cell &C = Cells[Id];
    if (C.Final || C.Round == Round) {
      Cyclic |= C.OnStack;
      Value = C.Value;
      return true;
    }
    if (C.Round < FirstRound)
      Solving.push_back(Id);
    C.Round = Round;
    C.OnStack = true;
    Stack.push_back({Id, 0, 0});
    return false;
  }

  /// sym(S, I, J) plus the self-scan match, as read() does.
  bool readSym(Symbol S, unsigned I, unsigned J, unsigned &Value) {
    // Terminals and self-scans need no cell; compute directly.
    unsigned Self = J == I + 1 && Input[I] == S ? 1 : 0;
    if (G.isTerminal(S)) {
      Value = Self;
      return true;
    }
    if (!read(symKey(S.id(), I, J), Value))
      return false;
    Value = satAdd(Self, Value);
    return true;
  }

  /// Advances \p F; \returns true once its sum is complete.
  bool evalSym(Frame &F, int32_t SymId, unsigned I, unsigned J) {
    const std::vector<unsigned> &Prods = G.productionsOf(Symbol(SymId));
    for (; F.Cursor != Prods.size() && F.Total != Cap; ++F.Cursor) {
      unsigned V = 0;
      if (!read(pathKey(Prods[F.Cursor], 0, I, J), V))
        return false;
      F.Total = satAdd(F.Total, V);
    }
    return true;
  }

  bool evalPath(Frame &F, unsigned Prod, unsigned Dot, unsigned K,
                unsigned J) {
    const Production &P = G.production(Prod);
    if (Dot == P.Rhs.size()) {
      F.Total = K == J ? 1 : 0;
      return true;
    }
    Symbol X = P.Rhs[Dot];
    if (Dot + 1 == P.Rhs.size())
      return readSym(X, K, J, F.Total);
    for (; K + F.Cursor <= J && F.Total != Cap; ++F.Cursor) {
      unsigned M = K + F.Cursor;
      unsigned Left = 0, Right = 0;
      if (!readSym(X, K, M, Left))
        return false;
      if (Left == 0)
        continue;
      if (!read(pathKey(Prod, Dot + 1, M, J), Right))
        return false;
      F.Total = satAdd(F.Total, satMul(Left, Right));
    }
    return true;
  }

  bool eval(Frame &F) {
    uint64_t Key = Cells[F.Cell].Key;
    if (Key >> 63)
      return evalSym(F, int32_t((Key >> 32) & 0x7FFFFFFF),
                     unsigned((Key >> 16) & 0xFFFF), unsigned(Key & 0xFFFF));
    return evalPath(F, unsigned(Key >> 40), unsigned((Key >> 32) & 0xFF),
                    unsigned((Key >> 16) & 0xFFFF), unsigned(Key & 0xFFFF));
  }

  /// Solves cell \p Key and every cell it reads to the least fixpoint.
  unsigned solve(uint64_t Key) {
    unsigned Value = 0;
    FirstRound = Round + 1;
    do {
      ++Round;
      Cyclic = Changed = false;
      if (read(Key, Value))
        break;
      while (!Stack.empty()) {
        size_t Top = Stack.size() - 1;
        Frame F = Stack[Top];
        bool Done = eval(F); // may push a frame above Top
        Stack[Top] = F;
        if (!Done)
          continue;
        Stack.pop_back();
        Cell &C = Cells[F.Cell];
        C.OnStack = false;
        if (C.Value != F.Total) {
          assert(F.Total > C.Value && "fixpoint must be monotone");
          C.Value = F.Total;
          Changed = true;
        }
      }
      // Without a cycle every cell was evaluated from final values.
    } while (Cyclic && Changed);
    // A cell the last round skipped (its reader saturated first) may
    // hold a stale lower bound; it stays open for later solves.
    for (uint32_t Id : Solving)
      Cells[Id].Final |= Cells[Id].Round == Round;
    Solving.clear();
    return Cells[Index.at(Key)].Value;
  }

  /// Exact count of \p S over Input[I..J), including the self-scan.
  unsigned countSym(Symbol S, unsigned I, unsigned J) {
    unsigned Self = J == I + 1 && Input[I] == S ? 1 : 0;
    if (G.isTerminal(S))
      return Self;
    return satAdd(Self, solve(symKey(S.id(), I, J)));
  }
};

} // namespace

unsigned DerivationCounter::countDerivations(Symbol Root,
                                        const std::vector<Symbol> &Input,
                                        unsigned Cap) const {
  assert(Cap >= 1 && "cap must be positive");
  assert(Input.size() < 0xFFFF && "input too long for cell encoding");
  Counter C(G, Input, Cap);
  return C.countSym(Root, 0, unsigned(Input.size()));
}

namespace {

/// Viable-prefix checking: boolean "open" cells layered over the exact
/// counter (with cap 1). openSym(X, i) holds when X derives a string whose
/// yield begins with Input[i..n) and may continue past it; openSeq(P, d,
/// i) is the same for the rule suffix rhs(P)[d..].
struct PrefixChecker {
  const Grammar &G;
  const GrammarAnalysis &Analysis;
  const std::vector<Symbol> &Input;
  Counter Exact;

  std::unordered_map<uint64_t, bool> Open;
  std::vector<uint64_t> OpenCells;

  static uint64_t openSymKey(int32_t Sym, unsigned I) {
    return (uint64_t(1) << 62) | (uint64_t(uint32_t(Sym)) << 16) | I;
  }
  static uint64_t openSeqKey(unsigned Prod, unsigned Dot, unsigned I) {
    return (uint64_t(Prod) << 24) | (uint64_t(Dot) << 16) | I;
  }

  bool readOpen(uint64_t Key) {
    auto [It, Inserted] = Open.emplace(Key, false);
    if (Inserted)
      OpenCells.push_back(Key);
    return It->second;
  }

  bool allProductive(const Production &P, size_t From) const {
    for (size_t I = From; I < P.Rhs.size(); ++I)
      if (!Analysis.isProductive(P.Rhs[I]))
        return false;
    return true;
  }

  bool readOpenSym(Symbol X, unsigned I) {
    unsigned N = unsigned(Input.size());
    if (Input[I] == X && I + 1 == N)
      return true;
    if (G.isTerminal(X))
      return false;
    return readOpen(openSymKey(X.id(), I));
  }

  bool evalOpenSym(int32_t SymId, unsigned I) {
    Symbol X(SymId);
    for (unsigned P : G.productionsOf(X))
      if (readOpen(openSeqKey(P, 0, I)))
        return true;
    return false;
  }

  bool evalOpenSeq(unsigned Prod, unsigned Dot, unsigned I) {
    const Production &P = G.production(Prod);
    unsigned N = unsigned(Input.size());
    if (I == N)
      return allProductive(P, Dot);
    if (Dot == P.Rhs.size())
      return false;
    Symbol X = P.Rhs[Dot];
    // (a) X stretches to the end of the prefix; later symbols only need
    // to derive something.
    if (readOpenSym(X, I) && allProductive(P, Dot + 1))
      return true;
    // (b) X matches Input[I..M) exactly and the rest of the rule
    // continues from M.
    for (unsigned M = I; M <= N; ++M) {
      if (Exact.countSym(X, I, M) >= 1 &&
          readOpen(openSeqKey(Prod, Dot + 1, M)))
        return true;
    }
    return false;
  }

  bool eval(uint64_t Key) {
    if ((Key >> 62) & 1)
      return evalOpenSym(int32_t((Key >> 16) & 0x3FFFFFFF),
                         unsigned(Key & 0xFFFF));
    return evalOpenSeq(unsigned(Key >> 24), unsigned((Key >> 16) & 0xFF),
                       unsigned(Key & 0xFFFF));
  }

  bool run(Symbol Root) {
    unsigned N = unsigned(Input.size());
    if (N == 0)
      return Analysis.isProductive(Root);
    if (Input[0] == Root && N == 1)
      return true;
    if (G.isTerminal(Root))
      return false;
    readOpen(openSymKey(Root.id(), 0));

    // Exact counts are solved on demand and final when read, so only the
    // open cells iterate.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      size_t OpenCellsBefore = OpenCells.size();
      for (size_t CI = 0; CI != OpenCells.size(); ++CI) {
        uint64_t Key = OpenCells[CI];
        bool New = eval(Key);
        bool &Slot = Open[Key];
        if (New && !Slot) {
          Slot = true;
          Changed = true;
        }
      }
      // A growing frontier must trigger another round even when no value
      // changed yet.
      Changed |= OpenCells.size() != OpenCellsBefore;
    }
    return Open[openSymKey(Root.id(), 0)];
  }
};

} // namespace

bool DerivationCounter::derivesPrefix(
    Symbol Root, const std::vector<Symbol> &Input) const {
  assert(Input.size() < 0xFFFF && "input too long for cell encoding");
  PrefixChecker P{G, Analysis, Input, Counter(G, Input, 1), {}, {}};
  return P.run(Root);
}
