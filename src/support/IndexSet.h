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
/// Terminal lookahead sets are everywhere in construction and search:
/// every item of every state carries one, FIRST/FOLLOW hold one per
/// symbol, and firstOfSequence returns one per call. An IndexSet keeps its
/// ceil(universe / 64) 64-bit words inside the object when there are at
/// most four of them (universes up to 256, which covers every grammar
/// here: sql.y, the largest, has 173 terminals), and in one heap block
/// otherwise. Small sets therefore never allocate, and moving one copies
/// its words; moving a large set takes its block and never throws, so a
/// growing std::vector<IndexSet> moves its elements.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_SUPPORT_INDEXSET_H
#define LALRCEX_SUPPORT_INDEXSET_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lalrcex {

/// A dynamically-sized set of small non-negative integers backed by a bit
/// vector. All sets participating in a binary operation must have been
/// created with the same universe size.
class IndexSet {
  /// Words kept inside the object; larger universes use the heap.
  static constexpr unsigned InlineWords = 4;

public:
  IndexSet() noexcept {}

  /// Creates an empty set over the universe {0, ..., \p UniverseSize - 1}.
  explicit IndexSet(unsigned UniverseSize) : Universe(UniverseSize) {
    allocate();
    std::fill_n(data(), numWords(), uint64_t(0));
  }

  /// Creates a set over {0, ..., \p UniverseSize - 1} from \p Bits, which
  /// holds ceil(UniverseSize / 64) words with no bit at or past the
  /// universe size.
  IndexSet(unsigned UniverseSize, const uint64_t *Bits)
      : Universe(UniverseSize) {
    allocate();
    std::copy_n(Bits, numWords(), data());
  }

  IndexSet(const IndexSet &Other) : Universe(Other.Universe) {
    allocate();
    std::copy_n(Other.data(), numWords(), data());
  }

  /// Leaves \p Other an empty set over the empty universe.
  IndexSet(IndexSet &&Other) noexcept : Universe(Other.Universe) {
    steal(Other);
  }

  IndexSet &operator=(const IndexSet &Other) {
    if (this == &Other)
      return *this;
    const unsigned W = Other.numWords();
    if (W != numWords()) {
      uint64_t *Block = W > InlineWords ? new uint64_t[W] : nullptr;
      release();
      if (Block)
        Heap = Block;
    }
    Universe = Other.Universe;
    std::copy_n(Other.data(), W, data());
    return *this;
  }

  /// Leaves \p Other an empty set over the empty universe.
  IndexSet &operator=(IndexSet &&Other) noexcept {
    if (this != &Other) {
      release();
      Universe = Other.Universe;
      steal(Other);
    }
    return *this;
  }

  ~IndexSet() { release(); }

  /// Creates a singleton set over the given universe.
  static IndexSet singleton(unsigned UniverseSize, unsigned Element) {
    IndexSet S(UniverseSize);
    S.insert(Element);
    return S;
  }

  unsigned universeSize() const { return Universe; }

  bool contains(unsigned Element) const {
    assert(Element < Universe && "element outside universe");
    return (data()[Element / 64] >> (Element % 64)) & 1;
  }

  void insert(unsigned Element) {
    assert(Element < Universe && "element outside universe");
    data()[Element / 64] |= uint64_t(1) << (Element % 64);
  }

  void erase(unsigned Element) {
    assert(Element < Universe && "element outside universe");
    data()[Element / 64] &= ~(uint64_t(1) << (Element % 64));
  }

  void clear() { std::fill_n(data(), numWords(), uint64_t(0)); }

  bool empty() const {
    const uint64_t *Words = data();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      if (Words[I] != 0)
        return false;
    return true;
  }

  /// Number of elements in the set.
  unsigned count() const {
    const uint64_t *Words = data();
    unsigned N = 0;
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      N += __builtin_popcountll(Words[I]);
    return N;
  }

  /// Unions \p Other into this set. \returns true if this set changed.
  bool unionWith(const IndexSet &Other) {
    assert(Universe == Other.Universe && "universe mismatch");
    uint64_t *Words = data();
    const uint64_t *OtherWords = Other.data();
    uint64_t Added = 0;
    for (unsigned I = 0, E = numWords(); I != E; ++I) {
      Added |= OtherWords[I] & ~Words[I];
      Words[I] |= OtherWords[I];
    }
    return Added != 0;
  }

  /// Intersects this set with \p Other in place.
  void intersectWith(const IndexSet &Other) {
    assert(Universe == Other.Universe && "universe mismatch");
    uint64_t *Words = data();
    const uint64_t *OtherWords = Other.data();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      Words[I] &= OtherWords[I];
  }

  /// \returns true if this set and \p Other share at least one element.
  bool intersects(const IndexSet &Other) const {
    assert(Universe == Other.Universe && "universe mismatch");
    const uint64_t *Words = data(), *OtherWords = Other.data();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      if (Words[I] & OtherWords[I])
        return true;
    return false;
  }

  /// \returns true if every element of this set is also in \p Other.
  bool isSubsetOf(const IndexSet &Other) const {
    assert(Universe == Other.Universe && "universe mismatch");
    const uint64_t *Words = data(), *OtherWords = Other.data();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      if (Words[I] & ~OtherWords[I])
        return false;
    return true;
  }

  bool operator==(const IndexSet &Other) const {
    return Universe == Other.Universe &&
           std::equal(data(), data() + numWords(), Other.data());
  }
  bool operator!=(const IndexSet &Other) const { return !(*this == Other); }

  /// Calls \p Fn with every element, in increasing order.
  template <typename Callable> void forEach(Callable Fn) const {
    const uint64_t *Words = data();
    for (unsigned I = 0, E = numWords(); I != E; ++I) {
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
    const uint64_t *Words = data();
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      if (Words[I])
        return unsigned(I * 64 + __builtin_ctzll(Words[I]));
    return Universe;
  }

  /// Collects the elements into a vector, in increasing order.
  std::vector<unsigned> elements() const;

  /// Raw word storage: ceil(universeSize() / 64) words, for word-level
  /// consumers (GrammarAnalysis's suffix-FIRST rows).
  const uint64_t *words() const { return data(); }

  /// A stable hash of the set contents, suitable for unordered containers.
  size_t hash() const {
    const uint64_t *Words = data();
    size_t H = 0x9e3779b97f4a7c15ULL;
    for (unsigned I = 0, E = numWords(); I != E; ++I)
      H = H * 0x100000001b3ULL ^ Words[I];
    return H;
  }

private:
  unsigned numWords() const { return (Universe + 63) / 64; }
  bool onHeap() const { return numWords() > InlineWords; }
  uint64_t *data() { return onHeap() ? Heap : Inline; }
  const uint64_t *data() const { return onHeap() ? Heap : Inline; }

  /// Gives a set whose Universe is set, and whose storage is not, its
  /// storage (words uninitialized).
  void allocate() {
    if (onHeap())
      Heap = new uint64_t[numWords()];
  }
  void release() {
    if (onHeap())
      delete[] Heap;
  }
  /// Takes \p Other's words (this set's Universe already equals its) and
  /// leaves it empty over the empty universe.
  void steal(IndexSet &Other) noexcept {
    if (onHeap())
      Heap = Other.Heap;
    else
      std::copy_n(Other.Inline, numWords(), Inline);
    Other.Universe = 0;
  }

  union {
    uint64_t Inline[InlineWords];
    uint64_t *Heap;
  };
  unsigned Universe = 0;
};

} // namespace lalrcex

#endif // LALRCEX_SUPPORT_INDEXSET_H
