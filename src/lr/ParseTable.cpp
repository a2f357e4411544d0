//===- lr/ParseTable.cpp --------------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "lr/ParseTable.h"

#include <algorithm>
#include <cassert>

using namespace lalrcex;

std::string Conflict::describe(const Grammar &G) const {
  std::string Out = K == ShiftReduce ? "shift/reduce" : "reduce/reduce";
  Out += " conflict in state #" + std::to_string(State) + " on " +
         G.name(Token) + ": reduce " + G.productionString(ReduceProd);
  if (K == ReduceReduce)
    Out += " vs reduce " + G.productionString(OtherProd);
  return Out;
}

std::string Conflict::describeResolution(const Grammar &G) const {
  switch (R) {
  case DefaultShift:
    return "unresolved: shift wins by default (reported)";
  case DefaultFirstRule:
    return "unresolved: the earlier rule " +
           G.productionString(ReduceProd) + " wins by default (reported)";
  case PrecShift: {
    int ProdPrec = G.productionPrecedence(ReduceProd);
    int TokPrec = G.precedenceLevel(Token);
    if (TokPrec > ProdPrec)
      return "resolved as shift: " + G.name(Token) +
             " binds tighter than the rule's precedence";
    return "resolved as shift: " + G.name(Token) +
           " is right-associative";
  }
  case PrecReduce: {
    int ProdPrec = G.productionPrecedence(ReduceProd);
    int TokPrec = G.precedenceLevel(Token);
    if (ProdPrec > TokPrec)
      return "resolved as reduce: the rule binds tighter than " +
             G.name(Token);
    return "resolved as reduce: " + G.name(Token) +
           " is left-associative";
  }
  case PrecError:
    return "resolved as error: " + G.name(Token) + " is non-associative";
  }
  return "";
}

void ParseTable::buildStateRow(unsigned S, std::vector<uint64_t> &Reduces,
                               std::vector<Conflict> &Out) {
  const Grammar &G = M.grammar();
  const unsigned NumT = G.numTerminals();
  const Automaton::State &St = M.state(S);
  const size_t StateConflicts = Out.size();

  // Reductions wanted, as (terminal << 32 | production) keys: sorted, each
  // terminal's run lists its productions in increasing order.
  Reduces.clear();
  bool AcceptsEof = false;
  for (unsigned I = 0, IE = unsigned(St.Items.size()); I != IE; ++I) {
    const Item &Itm = St.Items[I];
    if (!Itm.atEnd(G))
      continue;
    if (Itm.Prod == G.augmentedProduction()) {
      AcceptsEof = true;
      continue;
    }
    St.Lookaheads[I].forEach(
        [&](unsigned T) { Reduces.push_back((uint64_t(T) << 32) | Itm.Prod); });
  }
  std::sort(Reduces.begin(), Reduces.end());

  // Shifts from the transition function.
  for (const auto &[Sym, Target] : St.Transitions) {
    if (G.isTerminal(Sym))
      Actions[size_t(S) * NumT + unsigned(Sym.id())] = Action::shift(Target);
  }
  if (AcceptsEof)
    Actions[size_t(S) * NumT + unsigned(G.eof().id())] = Action::accept();

  for (size_t R = 0, RE = Reduces.size(); R != RE;) {
    // Rs[0 .. NumRs): the productions reducing on terminal T.
    const unsigned T = unsigned(Reduces[R] >> 32);
    const uint64_t *Rs = &Reduces[R];
    size_t NumRs = 0;
    for (; R != RE && unsigned(Reduces[R] >> 32) == T; ++R)
      ++NumRs;
    auto prodOf = [Rs](size_t I) { return unsigned(uint32_t(Rs[I])); };
    Action &Cell = Actions[size_t(S) * NumT + T];
    Symbol Tok = Symbol(int32_t(T));

    // Reduce/reduce conflicts: every extra reduction conflicts with the
    // first (earliest) one, which wins by default, as in yacc. One
    // conflict is reported per production pair and state (matching
    // CUP), not per clashing lookahead token; Token records the first
    // clashing terminal. The dedup scan only consults this state's own
    // conflicts, which is what makes per-state rows self-contained.
    for (size_t I = 1; I != NumRs; ++I) {
      bool Seen = false;
      for (size_t J = StateConflicts; J != Out.size(); ++J) {
        const Conflict &Prev = Out[J];
        if (Prev.K == Conflict::ReduceReduce && Prev.ReduceProd == prodOf(0) &&
            Prev.OtherProd == prodOf(I)) {
          Seen = true;
          break;
        }
      }
      if (Seen)
        continue;
      Conflict C;
      C.K = Conflict::ReduceReduce;
      C.State = S;
      C.Token = Tok;
      C.ReduceProd = prodOf(0);
      C.OtherProd = prodOf(I);
      C.R = Conflict::DefaultFirstRule;
      Out.push_back(C);
    }

    if (Cell.K == Action::Shift) {
      // The items wanting to shift this terminal; CUP reports one
      // shift/reduce conflict per (shift item, reduction) pair.
      std::vector<Item> ShiftItems;
      for (const Item &Itm : St.Items)
        if (Itm.afterDot(G) == Tok)
          ShiftItems.push_back(Itm);
      assert(!ShiftItems.empty() && "shift action without a shift item");

      for (size_t I = 0; I != NumRs; ++I) {
        const unsigned Prod = prodOf(I);
        Conflict C;
        C.K = Conflict::ShiftReduce;
        C.State = S;
        C.Token = Tok;
        C.ReduceProd = Prod;

        int ProdPrec = G.productionPrecedence(Prod);
        int TokPrec = G.precedenceLevel(Tok);
        if (ProdPrec > 0 && TokPrec > 0) {
          if (ProdPrec > TokPrec) {
            C.R = Conflict::PrecReduce;
          } else if (ProdPrec < TokPrec) {
            C.R = Conflict::PrecShift;
          } else {
            switch (G.associativity(Tok)) {
            case Assoc::Left:
              C.R = Conflict::PrecReduce;
              break;
            case Assoc::Right:
              C.R = Conflict::PrecShift;
              break;
            case Assoc::Nonassoc:
              C.R = Conflict::PrecError;
              break;
            case Assoc::None:
              C.R = Conflict::DefaultShift;
              break;
            }
          }
        } else {
          C.R = Conflict::DefaultShift;
        }

        if (C.R == Conflict::PrecReduce)
          Cell = Action::reduce(Prod);
        else if (C.R == Conflict::PrecError)
          Cell = Action::error();
        for (const Item &ShiftItm : ShiftItems) {
          C.ShiftItm = ShiftItm;
          Out.push_back(C);
        }
      }
      continue;
    }

    if (Cell.K == Action::Error || Cell.K == Action::Reduce) {
      // Pure reduction (possibly after R/R resolution above).
      Cell = Action::reduce(prodOf(0));
      continue;
    }
    // Accept cell: the augmented reduction wins; a reduction on $ in
    // the accepting state would be a conflict with accept, which cannot
    // happen for augmented grammars with a fresh start symbol.
  }
}

ParseTable::ParseTable(const Automaton &M) : M(M) {
  const unsigned NumT = M.grammar().numTerminals();
  Actions.assign(size_t(M.numStates()) * NumT, Action::error());
  std::vector<uint64_t> Reduces;
  for (unsigned S = 0, SE = M.numStates(); S != SE; ++S)
    buildStateRow(S, Reduces, Conflicts);
}

std::string ParseTable::checkExpectations() const {
  const Grammar &G = M.grammar();
  int Sr = 0, Rr = 0;
  for (const Conflict &C : Conflicts) {
    if (!C.reported())
      continue;
    if (C.K == Conflict::ShiftReduce)
      ++Sr;
    else
      ++Rr;
  }
  std::string Out;
  if (G.expectedShiftReduce() >= 0 && Sr != G.expectedShiftReduce())
    Out += "expected " + std::to_string(G.expectedShiftReduce()) +
           " shift/reduce conflicts, found " + std::to_string(Sr) + "\n";
  // Undeclared %expect-rr means zero tolerated R/R only when %expect was
  // given (yacc semantics are looser; we flag any R/R then).
  if (G.expectedReduceReduce() >= 0 && Rr != G.expectedReduceReduce())
    Out += "expected " + std::to_string(G.expectedReduceReduce()) +
           " reduce/reduce conflicts, found " + std::to_string(Rr) + "\n";
  return Out;
}

std::vector<Conflict> ParseTable::reportedConflicts() const {
  std::vector<Conflict> Out;
  for (const Conflict &C : Conflicts)
    if (C.reported())
      Out.push_back(C);
  return Out;
}

std::vector<Conflict>
ParseTable::reportedConflicts(ResourceGuard &Guard) const {
  std::vector<Conflict> Out;
  for (const Conflict &C : Conflicts) {
    Guard.chargeSteps(1);
    if (!C.reported())
      continue;
    Guard.chargeBytes(sizeof(Conflict));
    Out.push_back(C);
  }
  return Out;
}
