//===- grammar/GrammarDelta.h - Structural diff of two grammars *- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structural diff between two grammars — the old one a session
/// analysed and the edited one the author just handed back — expressed
/// as partial id maps. It is the input contract of the state matching
/// and conflict-report remapping in counterexample/IncrementalSession.h.
///
/// Matching is deliberately conservative: the delta only claims what it
/// can prove cheaply, and every consumer recomputes when `Valid` is false
/// or a needed id is unmapped. Concretely:
///
///   - Terminals are matched by name first ("$"/eof always pairs id 0
///     with id 0); leftover old and new terminals are then paired
///     positionally in id order, which absorbs renames exactly as for
///     nonterminals. A removed terminal simply stays unmapped, and so
///     does every production mentioning it. Terminal ids double as
///     lookahead-bitset indices, so consumers translate bitsets through
///     the map (translateTerminalSet).
///   - Nonterminals are matched by name first; leftover old and new
///     nonterminals are then paired positionally in id order, which
///     absorbs renames. A mis-pairing is harmless: the paired blocks
///     fail to match structurally.
///   - Per matched nonterminal, the production blocks are compared
///     positionally under the symbol map; a positionally identical
///     block maps 1:1. Otherwise the blocks are matched by a longest
///     common subsequence, so an insert/delete/rotation still maps
///     every surviving alternative.
///
/// Both maps must be monotone (old id order preserved), or the delta is
/// invalid. Kernels are sorted by production index, so a monotone
/// production map carries an old kernel to a sorted new one, which is
/// what state matching looks up. And the searches iterate terminal sets
/// and production-step rows in id order: only an order-preserving map
/// turns the remap layer's set and row equalities into an identical
/// replay. An edit that renumbers terminals out of order therefore gives
/// an invalid delta. Two do so once the edited grammar is printed and
/// parsed again, as an editor would hand it over: declaring a token's
/// precedence (the printer then declares that token last), and removing
/// a terminal where that strands nonterminals without alternatives
/// (their references come back as terminals, numbered last).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_GRAMMAR_GRAMMARDELTA_H
#define LALRCEX_GRAMMAR_GRAMMARDELTA_H

#include "grammar/Grammar.h"
#include "support/IndexSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lalrcex {

/// The structural diff described in the file comment. All vectors are
/// indexed by old/new symbol id or production index; -1 means unmapped.
struct GrammarDelta {
  /// False when the grammars are not comparable (non-monotone terminal
  /// or production map); consumers must recompute.
  bool Valid = false;
  /// One-line reason when !Valid, for trace/debug output.
  std::string InvalidReason;

  std::vector<int32_t> SymbolMap;    ///< old symbol id -> new id or -1
  std::vector<int32_t> InvSymbolMap; ///< new symbol id -> old id or -1
  std::vector<int32_t> ProdMap;      ///< old prod index -> new index or -1
  std::vector<int32_t> InvProdMap;   ///< new prod index -> old index or -1

  /// Terminal universe sizes of the two grammars (terminal ids are the
  /// lookahead-bitset universe; translateTerminalSet converts between
  /// them).
  uint32_t OldNumTerminals = 0, NewNumTerminals = 0;
  /// True when the terminal universes are identical: same count and the
  /// map is the identity on ids (renames keep ids, so they qualify).
  /// Lookahead bitsets can then be copied verbatim instead of being
  /// translated element by element.
  bool TermMapIdentity = false;

  Symbol mapSymbol(Symbol S) const {
    if (!S.valid() || unsigned(S.id()) >= SymbolMap.size())
      return Symbol();
    int32_t Id = SymbolMap[S.id()];
    return Id < 0 ? Symbol() : Symbol(Id);
  }
  Symbol invMapSymbol(Symbol S) const {
    if (!S.valid() || unsigned(S.id()) >= InvSymbolMap.size())
      return Symbol();
    int32_t Id = InvSymbolMap[S.id()];
    return Id < 0 ? Symbol() : Symbol(Id);
  }
  /// \returns the new index of old production \p P, or -1.
  int32_t mapProd(unsigned P) const {
    return P < ProdMap.size() ? ProdMap[P] : -1;
  }
  /// \returns the old index of new production \p P, or -1.
  int32_t invMapProd(unsigned P) const {
    return P < InvProdMap.size() ? InvProdMap[P] : -1;
  }

  /// Translates an old-universe terminal bitset into the new universe
  /// through the symbol map. \returns false — leaving \p Out untouched —
  /// when any element is unmapped (the set mentions a removed terminal);
  /// on success \p Out is a set over NewNumTerminals with exactly the
  /// mapped elements.
  bool translateTerminalSet(const IndexSet &OldSet, IndexSet &Out) const;
};

/// Computes the delta from \p Old to \p New.
GrammarDelta computeGrammarDelta(const Grammar &Old, const Grammar &New);

} // namespace lalrcex

#endif // LALRCEX_GRAMMAR_GRAMMARDELTA_H
