//===- grammar/Analysis.h - Nullable / FIRST / yield analyses --*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standard grammar analyses shared by the LR construction and the
/// counterexample searches: nullability, FIRST sets, the precise follow
/// computation of paper §4 (followL), symbol reachability/productivity, and
/// minimal terminal-yield lengths (used to prefer short completions).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_GRAMMAR_ANALYSIS_H
#define LALRCEX_GRAMMAR_ANALYSIS_H

#include "grammar/Grammar.h"
#include "support/IndexSet.h"
#include "support/TerminalSetPool.h"

#include <limits>
#include <vector>

namespace lalrcex {

class MetricsRegistry;
class TraceRecorder;

/// Precomputed analyses over a Grammar. The referenced grammar must outlive
/// the analysis object.
class GrammarAnalysis {
public:
  static constexpr unsigned Infinite = std::numeric_limits<unsigned>::max();

  /// \p Metrics / \p Trace, when non-null, record the construction's wall
  /// time and the pass count of each fixpoint (analysis.* counters).
  explicit GrammarAnalysis(const Grammar &G,
                           MetricsRegistry *Metrics = nullptr,
                           TraceRecorder *Trace = nullptr);

  const Grammar &grammar() const { return G; }

  /// \returns true if \p S can derive the empty string (always false for
  /// terminals).
  bool isNullable(Symbol S) const { return Nullable[S.id()]; }

  /// \returns true if every symbol of \p Syms[From..] is nullable.
  bool sequenceNullable(const std::vector<Symbol> &Syms,
                        size_t From = 0) const;

  /// FIRST(\p S) as a set of terminal ids. For a terminal this is the
  /// singleton {S}.
  const IndexSet &first(Symbol S) const { return First[S.id()]; }

  /// FIRST of the sequence \p Syms[From..]; if the whole sequence is
  /// nullable and \p Tail is non-null, \p Tail is unioned in. This is
  /// exactly the followL computation of paper §4 when \p Tail is the
  /// surrounding precise lookahead set.
  IndexSet firstOfSequence(const std::vector<Symbol> &Syms, size_t From,
                           const IndexSet *Tail = nullptr) const;

  /// \returns true if terminal \p T can be the first terminal of a
  /// derivation of \p Syms[From..] (or, when the sequence is nullable and
  /// \p Tail is non-null, T is in \p Tail).
  bool sequenceCanBeginWith(const std::vector<Symbol> &Syms, size_t From,
                            Symbol T, const IndexSet *Tail = nullptr) const;

  /// The frozen pool holding every FIRST and suffix-FIRST set, interned
  /// once at construction. The canonical LR(1) closure fixpoint extends it
  /// with a thread-local overlay (TerminalSetPool::overlay) so pooled ids
  /// stay valid across layers.
  const TerminalSetPool &pool() const { return Pool; }

  /// Pooled FIRST(\p S).
  TerminalSetPool::SetId firstId(Symbol S) const { return FirstIds[S.id()]; }

  /// Pooled FIRST of production \p ProdIndex's right-hand side from
  /// position \p Dot (no tail). Memoized: this is a table lookup, where
  /// firstOfSequence rescans the suffix on every call. Combine with
  /// suffixNullable and a pooled union for the full followL of paper §4:
  ///   followL = suffix-FIRST ∪ (suffix nullable ? tail : ∅).
  TerminalSetPool::SetId firstOfSequenceId(unsigned ProdIndex,
                                           unsigned Dot) const {
    return SuffixFirstIds[SuffixOffset[ProdIndex] + Dot];
  }

  /// \returns true if every symbol of production \p ProdIndex's right-hand
  /// side from position \p Dot is nullable. Memoized sequenceNullable.
  bool suffixNullable(unsigned ProdIndex, unsigned Dot) const {
    return SuffixNullableBits[SuffixOffset[ProdIndex] + Dot];
  }

  /// Memoized O(1) form of sequenceCanBeginWith for a production suffix:
  /// true if terminal \p T can begin a derivation of Rhs[Dot..] (or the
  /// suffix is nullable and \p Tail contains T).
  bool suffixCanBeginWith(unsigned ProdIndex, unsigned Dot, Symbol T,
                          const IndexSet *Tail = nullptr) const {
    assert(G.isTerminal(T) && "expected a terminal");
    if (Pool.contains(firstOfSequenceId(ProdIndex, Dot), T.id()))
      return true;
    return suffixNullable(ProdIndex, Dot) && Tail && Tail->contains(T.id());
  }

  /// Length of the shortest terminal string derivable from \p S
  /// (1 for terminals); Infinite if \p S is unproductive.
  unsigned minYieldLength(Symbol S) const { return MinYield[S.id()]; }

  /// Length of the shortest terminal string derivable from the whole
  /// right-hand side of production \p ProdIndex; Infinite if unproductive.
  unsigned minProductionYield(unsigned ProdIndex) const {
    return MinProdYield[ProdIndex];
  }

  /// Index of a production of \p Nonterminal achieving minYieldLength;
  /// only valid when the nonterminal is productive.
  unsigned minProduction(Symbol Nonterminal) const;

  /// \returns true if \p S derives at least one terminal string.
  bool isProductive(Symbol S) const { return MinYield[S.id()] != Infinite; }

  /// \returns true if \p S appears in some sentential form derived from
  /// the start symbol.
  bool isReachable(Symbol S) const { return Reachable[S.id()]; }

  /// Classical FOLLOW(\p Nonterminal): terminals that can appear
  /// immediately after it in some sentential form (the end-of-input
  /// terminal included where applicable). LALR lookaheads are always
  /// subsets of these sets.
  const IndexSet &follow(Symbol Nonterminal) const {
    assert(G.isNonterminal(Nonterminal) && "expected a nonterminal");
    return Follow[Nonterminal.id()];
  }

private:
  unsigned computeNullable();
  unsigned computeFirst();
  unsigned computeFollow();
  unsigned computeMinYield();
  void computeReachable();
  void buildPool();

  const Grammar &G;
  std::vector<bool> Nullable;      // indexed by symbol id
  std::vector<IndexSet> First;     // indexed by symbol id
  std::vector<IndexSet> Follow;    // indexed by symbol id (nonterminals)
  std::vector<unsigned> MinYield;  // indexed by symbol id
  std::vector<unsigned> MinProdYield; // indexed by production
  std::vector<unsigned> MinProd;   // indexed by nonterminal offset
  std::vector<bool> Reachable;     // indexed by symbol id

  /// Hash-consed terminal sets; frozen once construction finishes.
  TerminalSetPool Pool;
  std::vector<TerminalSetPool::SetId> FirstIds; // indexed by symbol id
  /// Per-(production, dot) memo tables, flattened; production P's row
  /// starts at SuffixOffset[P] and has rhs-length + 1 entries.
  std::vector<unsigned> SuffixOffset;
  std::vector<TerminalSetPool::SetId> SuffixFirstIds;
  std::vector<bool> SuffixNullableBits;
};

} // namespace lalrcex

#endif // LALRCEX_GRAMMAR_ANALYSIS_H
