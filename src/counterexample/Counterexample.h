//===- counterexample/Counterexample.h - Result types ----------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of explaining one parsing conflict: either a unifying
/// counterexample (one string, two derivations of the same nonterminal,
/// paper §5) or a nonunifying counterexample (two derivations sharing a
/// prefix up to the conflict point, paper §4).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_COUNTEREXAMPLE_H
#define LALRCEX_COUNTEREXAMPLE_COUNTEREXAMPLE_H

#include "counterexample/Derivation.h"

#include <string>
#include <vector>

namespace lalrcex {

/// A counterexample for one conflict.
///
/// Each side is a list of derivation trees whose concatenated yield is the
/// counterexample string; a dot marker inside the trees marks the conflict
/// point. For unifying counterexamples both lists are singletons rooted at
/// the same (ambiguous) nonterminal; for nonunifying counterexamples the
/// lists derive the start symbol and agree only up to the conflict point.
struct Counterexample {
  /// True if this is a unifying counterexample (a proof of ambiguity).
  bool Unifying = false;

  /// For unifying examples, the ambiguous nonterminal; for nonunifying
  /// examples, the start symbol both sides derive from.
  Symbol Root;

  /// Nonunifying only: true when both derivations share the prefix up to
  /// the conflict point (the normal case). False when no context for the
  /// second item was found that follows the states of the reduce item's
  /// shortest lookahead-sensitive path, so each derivation is shown in its
  /// own lookahead-sensitive context. That search covers one prefix only:
  /// it does not show that no single context admits both actions, and a
  /// canonical LR(1) automaton may keep the conflict.
  bool PrefixShared = true;

  /// The derivation that uses the conflict's reduce item.
  std::vector<DerivPtr> Derivs1;
  /// The derivation that uses the conflict's shift item (or the second
  /// reduce item for reduce/reduce conflicts).
  std::vector<DerivPtr> Derivs2;

  /// Yield of each side with the conflict dot rendered as "•".
  std::string exampleString1(const Grammar &G) const {
    return yieldString(G, Derivs1);
  }
  std::string exampleString2(const Grammar &G) const {
    return yieldString(G, Derivs2);
  }

  /// Yields without the dot marker.
  std::vector<Symbol> yield1() const { return yieldOf(Derivs1); }
  std::vector<Symbol> yield2() const { return yieldOf(Derivs2); }
};

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_COUNTEREXAMPLE_H
