//===- support/IndexSet.h - Dynamic bit set over small indices -*- C++ -*-===//
//
// Part of lalrcex, a reproduction of "Finding Counterexamples from Parsing
// Conflicts" (Isradisaikul & Myers, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact dynamically-sized bit set keyed by non-negative indices.
///
/// Terminal lookahead sets are the hottest data structure in the
/// counterexample search: they are copied, merged, hashed, and compared
/// millions of times. IndexSet stores bits in a small inline vector of
/// 64-bit words and provides the exact operations the search needs.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_SUPPORT_INDEXSET_H
#define LALRCEX_SUPPORT_INDEXSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lalrcex {

/// A dynamically-sized set of small non-negative integers backed by a bit
/// vector. All sets participating in a binary operation must have been
/// created with the same universe size.
class IndexSet {
public:
  IndexSet() = default;

  /// Creates an empty set over the universe {0, ..., \p UniverseSize - 1}.
  explicit IndexSet(unsigned UniverseSize)
      : Words((UniverseSize + 63) / 64, 0), Universe(UniverseSize) {}

  /// Creates a set over {0, ..., \p UniverseSize - 1} from \p Bits, which
  /// holds ceil(UniverseSize / 64) words with no bit at or past the
  /// universe size.
  IndexSet(unsigned UniverseSize, const uint64_t *Bits)
      : Words(Bits, Bits + (UniverseSize + 63) / 64), Universe(UniverseSize) {}

  /// Creates a singleton set over the given universe.
  static IndexSet singleton(unsigned UniverseSize, unsigned Element) {
    IndexSet S(UniverseSize);
    S.insert(Element);
    return S;
  }

  unsigned universeSize() const { return Universe; }

  bool contains(unsigned Element) const {
    assert(Element < Universe && "element outside universe");
    return (Words[Element / 64] >> (Element % 64)) & 1;
  }

  void insert(unsigned Element) {
    assert(Element < Universe && "element outside universe");
    Words[Element / 64] |= uint64_t(1) << (Element % 64);
  }

  void erase(unsigned Element) {
    assert(Element < Universe && "element outside universe");
    Words[Element / 64] &= ~(uint64_t(1) << (Element % 64));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W != 0)
        return false;
    return true;
  }

  /// Number of elements in the set.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  /// Unions \p Other into this set. \returns true if this set changed.
  bool unionWith(const IndexSet &Other) {
    assert(Universe == Other.Universe && "universe mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Intersects this set with \p Other in place.
  void intersectWith(const IndexSet &Other) {
    assert(Universe == Other.Universe && "universe mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= Other.Words[I];
  }

  /// \returns true if this set and \p Other share at least one element.
  bool intersects(const IndexSet &Other) const {
    assert(Universe == Other.Universe && "universe mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  /// \returns true if every element of this set is also in \p Other.
  bool isSubsetOf(const IndexSet &Other) const {
    assert(Universe == Other.Universe && "universe mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I] & ~Other.Words[I])
        return false;
    return true;
  }

  bool operator==(const IndexSet &Other) const {
    return Universe == Other.Universe && Words == Other.Words;
  }
  bool operator!=(const IndexSet &Other) const { return !(*this == Other); }

  /// Calls \p Fn with every element, in increasing order.
  template <typename Callable> void forEach(Callable Fn) const {
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t W = Words[I];
      while (W) {
        unsigned Bit = __builtin_ctzll(W);
        Fn(unsigned(I * 64 + Bit));
        W &= W - 1;
      }
    }
  }

  /// The smallest element, or the universe size if the set is empty.
  unsigned firstElement() const {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I])
        return unsigned(I * 64 + __builtin_ctzll(Words[I]));
    return Universe;
  }

  /// Collects the elements into a vector, in increasing order.
  std::vector<unsigned> elements() const;

  /// Raw word storage: ceil(universeSize() / 64) words, for word-level
  /// consumers (GrammarAnalysis's suffix-FIRST rows).
  const uint64_t *words() const { return Words.data(); }

  /// A stable hash of the set contents, suitable for unordered containers.
  size_t hash() const {
    size_t H = 0x9e3779b97f4a7c15ULL;
    for (uint64_t W : Words)
      H = H * 0x100000001b3ULL ^ W;
    return H;
  }

private:
  std::vector<uint64_t> Words;
  unsigned Universe = 0;
};

} // namespace lalrcex

#endif // LALRCEX_SUPPORT_INDEXSET_H
