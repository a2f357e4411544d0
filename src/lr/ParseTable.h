//===- lr/ParseTable.h - ACTION/GOTO table and conflicts -------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LALR(1) ACTION/GOTO table, with yacc-style precedence resolution and
/// a record of every shift/reduce and reduce/reduce conflict (both the
/// conflicts resolved by precedence declarations and the genuine, reported
/// ones that the counterexample finder explains).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_LR_PARSETABLE_H
#define LALRCEX_LR_PARSETABLE_H

#include "lr/Automaton.h"
#include "support/Budget.h"

#include <string>
#include <vector>

namespace lalrcex {

/// A parser action for one (state, terminal) pair.
struct Action {
  enum Kind : uint8_t { Error, Shift, Reduce, Accept };
  Kind K = Error;
  /// Shift: target state. Reduce: production index. Otherwise unused.
  unsigned Target = 0;

  static Action error() { return Action{}; }
  static Action shift(unsigned State) { return Action{Shift, State}; }
  static Action reduce(unsigned Prod) { return Action{Reduce, Prod}; }
  static Action accept() { return Action{Accept, 0}; }
};

/// A parsing conflict detected during table construction.
struct Conflict {
  enum Kind : uint8_t { ShiftReduce, ReduceReduce };
  /// How the conflict was settled in the table.
  enum Resolution : uint8_t {
    DefaultShift,     // unresolved S/R; shift wins by default (reported)
    DefaultFirstRule, // unresolved R/R; earlier rule wins (reported)
    PrecShift,        // precedence chose the shift (not reported)
    PrecReduce,       // precedence chose the reduction (not reported)
    PrecError,        // nonassoc: both actions removed (not reported)
  };

  Kind K = ShiftReduce;
  unsigned State = 0;
  /// The terminal under which the conflict occurs.
  Symbol Token;
  /// The (first) conflicting reduce production.
  unsigned ReduceProd = 0;
  /// ReduceReduce only: the second reduce production (ReduceProd has the
  /// smaller index).
  unsigned OtherProd = 0;
  /// ShiftReduce only: the conflicting shift item (there is one Conflict
  /// record per shift item wanting the conflict terminal, matching CUP's
  /// conflict counting).
  Item ShiftItm;
  Resolution R = DefaultShift;

  /// \returns true if the conflict survives precedence resolution and is
  /// reported to the user.
  bool reported() const {
    return R == DefaultShift || R == DefaultFirstRule;
  }

  /// The reduce item (dot at the end of ReduceProd).
  Item reduceItem(const Grammar &G) const {
    return Item(ReduceProd, uint32_t(G.production(ReduceProd).Rhs.size()));
  }

  /// A human-readable one-line description.
  std::string describe(const Grammar &G) const;

  /// Explains how the table settled this conflict, in yacc report style
  /// (e.g. "resolved as reduce: %left PLUS makes the reduction win").
  std::string describeResolution(const Grammar &G) const;
};

/// The ACTION/GOTO table of an Automaton.
class ParseTable {
public:
  explicit ParseTable(const Automaton &M);

  const Automaton &automaton() const { return M; }

  /// The action for (\p State, terminal \p T).
  Action action(unsigned State, Symbol T) const {
    assert(M.grammar().isTerminal(T) && "expected a terminal");
    return Actions[State * M.grammar().numTerminals() + unsigned(T.id())];
  }

  /// The GOTO target for (\p State, nonterminal \p N), or -1.
  int gotoState(unsigned State, Symbol N) const {
    return M.transition(State, N);
  }

  /// All conflicts, in (state, token) order; includes
  /// precedence-resolved conflicts (check Conflict::reported()).
  const std::vector<Conflict> &conflicts() const { return Conflicts; }

  /// Only the conflicts that survive precedence resolution.
  std::vector<Conflict> reportedConflicts() const;

  /// Guard-tolerant enumeration: charges \p Guard one deterministic step
  /// per scanned conflict and the bytes of the returned vector, but always
  /// returns the complete list — a tripped guard is recorded (sticky) for
  /// the caller to observe, so downstream degradation still covers every
  /// conflict rather than silently dropping some.
  std::vector<Conflict> reportedConflicts(ResourceGuard &Guard) const;

  /// Compares reported conflict counts against the grammar's %expect /
  /// %expect-rr declarations. \returns an empty string when everything
  /// matches (or nothing was declared); otherwise a yacc-style message.
  std::string checkExpectations() const;

private:
  /// Builds state \p S's ACTION row in place and appends its conflicts
  /// to \p Out. The R/R dedup scan only consults conflicts of the same
  /// state, so running the states in order yields (state, token) order.
  /// \p Reduces is scratch, reused across states.
  void buildStateRow(unsigned S, std::vector<uint64_t> &Reduces,
                     std::vector<Conflict> &Out);

  const Automaton &M;
  std::vector<Action> Actions;
  std::vector<Conflict> Conflicts;
};

} // namespace lalrcex

#endif // LALRCEX_LR_PARSETABLE_H
