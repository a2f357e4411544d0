//===- support/TerminalSetPool.h - Hash-consed terminal sets ---*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash-consed, arena-backed pool of immutable terminal sets.
///
/// Lookahead sets are the hottest values of automaton construction: the
/// LR closure fixpoints merge them millions of times. The pool interns every distinct set once and hands out a canonical
/// 32-bit SetId, so
///
///   - equality is an integer compare (two ids are equal iff the sets are),
///   - a "did this union change anything" fixpoint test is `NewId != OldId`,
///   - union and with-element results are cached by id pair, so the
///     re-merges an LR fixpoint performs over and over collapse into one
///     hash probe each.
///
/// Sets of at most two elements — the overwhelming majority of lookahead
/// sets in real grammars — are encoded \e inline in the id itself (tag bit
/// plus two 15-bit element slots), so they occupy no arena storage and
/// never touch the intern table. Wider sets live in a fixed-stride word
/// arena indexed by id.
///
/// Pools layer: a frozen base pool (e.g. the grammar analysis's pool of
/// FIRST/suffix-FIRST sets) can be extended by any number of concurrent
/// \e overlay pools, one per construction pass. An overlay
/// reads the base read-only (thread-safe by construction) and appends its
/// own sets locally; ids are global across the chain, so a base id can be
/// unioned with an overlay id freely.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_SUPPORT_TERMINALSETPOOL_H
#define LALRCEX_SUPPORT_TERMINALSETPOOL_H

#include "support/IndexSet.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <new>
#include <unordered_map>
#include <vector>

namespace lalrcex {

class ResourceGuard;

/// The word-level union kernel of the pool. The portable implementation
/// is written 4-wide and autovectorizes; on x86-64 an AVX2 version is
/// selected once at startup behind a runtime CPUID check, so the binary
/// needs no -mavx2 baseline. All loads are unaligned-safe.
namespace setkernel {

/// ORs \p Words words of \p Src into \p Dst.
void orIntoScalar(uint64_t *Dst, const uint64_t *Src, unsigned Words);

/// Whether the AVX2 variant below runs vector code on this machine.
bool avx2Available();
/// AVX2 kernel; identical results to the scalar version, falling back to
/// it when avx2Available() is false. Exposed for the equivalence tests;
/// hot paths go through the dispatched entry point.
void orIntoAvx2(uint64_t *Dst, const uint64_t *Src, unsigned Words);

/// Dispatched entry point (resolved once per process).
void orInto(uint64_t *Dst, const uint64_t *Src, unsigned Words);

} // namespace setkernel

/// Growable 64-byte-aligned uint64_t buffer backing the wide-set arena.
/// std::vector makes no alignment promise beyond alignof(uint64_t); the
/// SIMD kernels want every set's words to start on a cache-line boundary
/// so a stride-4 row never splits lines. Append-only, like the arena.
class AlignedWordBuffer {
public:
  AlignedWordBuffer() = default;
  ~AlignedWordBuffer() { release(); }
  AlignedWordBuffer(AlignedWordBuffer &&O) noexcept
      : Data(O.Data), Count(O.Count), Cap(O.Cap) {
    O.Data = nullptr;
    O.Count = O.Cap = 0;
  }
  AlignedWordBuffer &operator=(AlignedWordBuffer &&O) noexcept {
    if (this != &O) {
      release();
      Data = O.Data;
      Count = O.Count;
      Cap = O.Cap;
      O.Data = nullptr;
      O.Count = O.Cap = 0;
    }
    return *this;
  }
  AlignedWordBuffer(const AlignedWordBuffer &) = delete;
  AlignedWordBuffer &operator=(const AlignedWordBuffer &) = delete;

  size_t size() const { return Count; }
  const uint64_t *data() const { return Data; }
  const uint64_t &operator[](size_t I) const {
    assert(I < Count);
    return Data[I];
  }

  void append(const uint64_t *W, size_t N) {
    if (Count + N > Cap)
      grow(Count + N);
    std::copy(W, W + N, Data + Count);
    Count += N;
  }

private:
  void grow(size_t Need) {
    size_t NewCap = std::max(Need, Cap ? Cap * 2 : size_t(64));
    auto *NewData = static_cast<uint64_t *>(::operator new(
        NewCap * sizeof(uint64_t), std::align_val_t(64)));
    std::copy(Data, Data + Count, NewData);
    release();
    Data = NewData;
    Cap = NewCap;
  }
  void release() {
    if (Data)
      ::operator delete(Data, std::align_val_t(64));
    Data = nullptr;
  }

  uint64_t *Data = nullptr;
  size_t Count = 0;
  size_t Cap = 0;
};

/// Hash-consed immutable terminal sets with cached binary operations.
class TerminalSetPool {
public:
  /// Canonical id of a pooled set. Ids with the top bit set are inline
  /// small sets (0-2 elements); other ids index the wide-set arena.
  using SetId = uint32_t;

  /// Creates a root pool over the universe {0, ..., UniverseSize - 1}.
  explicit TerminalSetPool(unsigned UniverseSize);

  /// Creates an overlay pool extending frozen \p Base. The base must not
  /// be mutated while any overlay of it is alive (freeze() enforces this
  /// in debug builds), but any number of overlays may read it
  /// concurrently. \p Guard, when given, is charged for arena and intern
  /// table growth.
  static TerminalSetPool overlay(const TerminalSetPool &Base,
                                 ResourceGuard *Guard = nullptr);

  TerminalSetPool(TerminalSetPool &&) = default;
  TerminalSetPool(const TerminalSetPool &) = delete;
  TerminalSetPool &operator=(const TerminalSetPool &) = delete;

  unsigned universeSize() const { return Universe; }

  /// Marks this pool immutable: any further interning attempt asserts.
  /// Call before sharing the pool across threads as an overlay base.
  void freeze() { Frozen = true; }
  bool frozen() const { return Frozen; }

  /// The canonical empty set (an inline id; no storage).
  SetId emptySet() const { return EmptyId; }

  /// The canonical singleton {Element}.
  SetId singleton(unsigned Element);

  /// Interns \p S (which must share this pool's universe size) and
  /// returns its canonical id.
  SetId intern(const IndexSet &S);

  /// The canonical id of A ∪ B. Results are cached per unordered id pair.
  SetId unionSets(SetId A, SetId B);

  /// The canonical id of A ∪ {Element}. Cached per (id, element).
  SetId withElement(SetId A, unsigned Element);

  bool contains(SetId A, unsigned Element) const;

  /// Meaningful (universe-covering) words per set.
  unsigned wordsPerSet() const { return WordsPerSet; }

  bool empty(SetId A) const { return A == EmptyId; }

  /// Number of elements in the set.
  unsigned count(SetId A) const;

  /// Calls \p Fn with every element, in increasing order.
  template <typename Callable> void forEach(SetId A, Callable Fn) const {
    if (A & InlineTag) {
      unsigned Lo = A & SlotMask, Hi = (A >> SlotBits) & SlotMask;
      if (Lo != SlotEmpty)
        Fn(Lo);
      if (Hi != SlotEmpty)
        Fn(Hi);
      return;
    }
    const uint64_t *W = wordsOf(A);
    for (unsigned I = 0; I != WordsPerSet; ++I) {
      uint64_t Word = W[I];
      while (Word) {
        Fn(unsigned(I * 64 + __builtin_ctzll(Word)));
        Word &= Word - 1;
      }
    }
  }

  /// Copies the set out as a standalone IndexSet over this universe.
  IndexSet materialize(SetId A) const;

  /// Copies the set into an IndexSet over a (not smaller) universe
  /// \p UniverseOverride; every element must fit.
  IndexSet materialize(SetId A, unsigned UniverseOverride) const;

  /// Observability for the pool tests.
  struct Stats {
    size_t WideSets = 0;       ///< interned wide sets in this pool layer
    size_t ArenaBytes = 0;     ///< word-arena bytes in this pool layer
    size_t InternProbes = 0;   ///< intern() calls that hashed (wide sets)
    size_t UnionCalls = 0;     ///< unionSets() calls past the fast paths
    size_t UnionCacheHits = 0; ///< of which answered from the pair cache
    size_t WithElementCalls = 0;
    size_t WithElementCacheHits = 0;
  };
  const Stats &stats() const { return Counters; }

private:
  // Inline encoding: top bit tags the id, two 15-bit slots hold the
  // elements sorted ascending, SlotEmpty marks an unused slot. Disabled
  // (every set wide) when the universe does not fit 15-bit elements.
  static constexpr SetId InlineTag = 0x80000000u;
  static constexpr unsigned SlotBits = 15;
  static constexpr unsigned SlotMask = (1u << SlotBits) - 1;
  static constexpr unsigned SlotEmpty = SlotMask;
  static constexpr SetId EmptyInlineId =
      InlineTag | (SlotEmpty << SlotBits) | SlotEmpty;

  TerminalSetPool(const TerminalSetPool *Base, ResourceGuard *Guard);

  bool inlineEnabled() const { return Universe < SlotEmpty; }
  static bool isInline(SetId A) { return (A & InlineTag) != 0; }
  SetId makeInline(unsigned Lo, unsigned Hi) const {
    return InlineTag | (Hi << SlotBits) | Lo;
  }

  /// Words of wide set \p A, resolving through the base chain.
  const uint64_t *wordsOf(SetId A) const;

  /// Interns the wide-set scratch buffer (Scratch) and returns its id;
  /// demotes to an inline id when the contents fit.
  SetId internScratch();

  /// Looks up a wide set equal to Scratch in this layer and all bases.
  SetId findScratch(uint64_t Hash) const;
  SetId findScratchLocal(uint64_t Hash) const;

  uint64_t hashWords(const uint64_t *W) const;
  bool equalsScratch(SetId A) const;
  void loadScratch(SetId A) const;
  void chargeGrowth(size_t Bytes);

  unsigned Universe;
  unsigned WordsPerSet;
  /// Arena stride: WordsPerSet padded to a multiple of 4 for universes
  /// wide enough to profit (> 2 words); padding words stay zero.
  unsigned StrideWords;
  const TerminalSetPool *Base = nullptr;
  /// First wide id owned by this layer (== number of wide sets below).
  uint32_t FirstLocalId = 0;
  bool Frozen = false;
  ResourceGuard *Guard = nullptr;
  /// Empty-set id: inline when enabled, otherwise the first wide set.
  SetId EmptyId;

  /// Fixed-stride arena: wide set (id - FirstLocalId) occupies words
  /// [(id - FirstLocalId) * StrideWords, ...), cache-line aligned.
  AlignedWordBuffer Arena;
  /// Wide-set intern index: content hash -> ids with that hash.
  std::unordered_multimap<uint64_t, SetId> Intern;
  /// Operation caches keyed by id pair / (id, element).
  std::unordered_map<uint64_t, SetId> UnionCache;
  std::unordered_map<uint64_t, SetId> WithElementCache;
  /// Scratch words for building candidate sets without allocating.
  mutable std::vector<uint64_t> Scratch;

  Stats Counters;
};

} // namespace lalrcex

#endif // LALRCEX_SUPPORT_TERMINALSETPOOL_H
