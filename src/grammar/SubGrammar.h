//===- grammar/SubGrammar.h - Reachable-sub-grammar slicing ----*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-nonterminal reachable-sub-grammar slicing and hashing, the
/// fine-grained fingerprint layer under incremental re-analysis.
///
/// The *slice* of a nonterminal A is the set of nonterminals reachable
/// from A by following right-hand sides (A itself included) — exactly the
/// part of the grammar that can influence any derivation rooted at A. The
/// index precomputes one closure bitset per nonterminal with a bitset
/// fixpoint, so slice queries are O(words).
///
/// Two hashes are derived from a slice:
///
///   - subGrammarHash(): a *name-based* canonical hash (slice nonterminals
///     sorted by name, productions in declaration order as right-hand-side
///     name lists). It is invariant under any edit outside the slice —
///     including edits that renumber symbol ids or production indices —
///     changes whenever a production inside the slice changes, and is
///     stable across reordering of unrelated nonterminals' rules.
///     Property-tested directly.
///
///   - idBoundSliceHash(): an *id-based* structural hash (symbol ids and
///     production indices, no names, no precedence). Ids are only
///     meaningful relative to one automaton, so this variant is the one
///     folded into per-conflict cache keys, where a global automaton
///     structure hash already pins the id universe (cache/AnalysisCache.h).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_GRAMMAR_SUBGRAMMAR_H
#define LALRCEX_GRAMMAR_SUBGRAMMAR_H

#include "grammar/Grammar.h"
#include "support/Hash.h"

#include <vector>

namespace lalrcex {

/// Precomputed per-nonterminal reachability closures over one grammar.
/// The grammar must outlive the index.
class SubGrammarIndex {
public:
  explicit SubGrammarIndex(const Grammar &G);

  const Grammar &grammar() const { return G; }

  /// True when \p To occurs in the slice of \p From (both nonterminals;
  /// reflexive).
  bool reaches(Symbol From, Symbol To) const;

  /// The slice of \p Root: every nonterminal reachable from it, in
  /// ascending id order (Root included).
  std::vector<Symbol> slice(Symbol Root) const;

  /// Union of the slices of \p Roots, ascending id order.
  std::vector<Symbol> slice(const std::vector<Symbol> &Roots) const;

  /// Name-based canonical hash of the slice of \p Root (see file comment).
  Fingerprint128 subGrammarHash(Symbol Root) const;

  /// Id-based structural hash of the union slice of \p Roots (see file
  /// comment); name- and precedence-free.
  Fingerprint128 idBoundSliceHash(const std::vector<Symbol> &Roots) const;

private:
  unsigned ntIndex(Symbol S) const;
  const uint64_t *closureWords(unsigned NtIdx) const {
    return Closure.data() + size_t(NtIdx) * Words;
  }

  const Grammar &G;
  unsigned NumNts;
  unsigned Words;
  /// NumNts rows of Words 64-bit words each; bit j of row i means
  /// "nonterminal j is reachable from nonterminal i".
  std::vector<uint64_t> Closure;
};

} // namespace lalrcex

#endif // LALRCEX_GRAMMAR_SUBGRAMMAR_H
