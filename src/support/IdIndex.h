//===- support/IdIndex.h - Id-only open-addressing hash index --*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressing hash index whose slots hold only 32-bit ids; the keys
/// live in the caller's own storage. It interns the LR(0) kernels of the
/// automaton (and answers the incremental session's kernel lookups), and
/// the unifying search's item sequences and visited configurations.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_SUPPORT_IDINDEX_H
#define LALRCEX_SUPPORT_IDINDEX_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lalrcex {

/// Open-addressing index over ids whose keys live in the caller's own
/// storage. A slot holds only an id; probes compare keys by reading them
/// back through the id, and growth re-hashes ids the same way. Linear
/// probing over a power-of-two capacity, growth at load 1/2, no erase.
class IdIndex {
public:
  static constexpr uint32_t Empty = ~uint32_t(0);

  /// The slot holding the id for which \p Matches(Id) is true, or else the
  /// empty slot where that key's id belongs. \p HashOf(Id) is the hash of
  /// a stored id's key; every stored id's key must be readable. Growth
  /// happens here, before the probe, so an empty result slot stays valid
  /// for one publish().
  template <typename MatchFn, typename HashFn>
  uint32_t &probe(uint64_t Hash, MatchFn Matches, HashFn HashOf) {
    if (2 * (Count + 1) > Slots.size())
      grow(HashOf);
    size_t Mask = Slots.size() - 1;
    for (size_t I = size_t(Hash) & Mask;; I = (I + 1) & Mask)
      if (Slots[I] == Empty || Matches(Slots[I]))
        return Slots[I];
  }

  /// The id for which \p Matches(Id) is true, or Empty. Never grows.
  template <typename MatchFn>
  uint32_t find(uint64_t Hash, MatchFn Matches) const {
    if (Slots.empty())
      return Empty;
    size_t Mask = Slots.size() - 1;
    for (size_t I = size_t(Hash) & Mask;; I = (I + 1) & Mask)
      if (Slots[I] == Empty || Matches(Slots[I]))
        return Slots[I];
  }

  /// Stores \p Id in the empty \p Slot that probe() returned.
  void publish(uint32_t &Slot, uint32_t Id) {
    Slot = Id;
    ++Count;
  }

private:
  template <typename HashFn> void grow(HashFn HashOf) {
    std::vector<uint32_t> Old(std::max<size_t>(64, 2 * Slots.size()), Empty);
    Old.swap(Slots);
    size_t Mask = Slots.size() - 1;
    for (uint32_t Id : Old) {
      if (Id == Empty)
        continue;
      size_t I = size_t(HashOf(Id)) & Mask;
      while (Slots[I] != Empty)
        I = (I + 1) & Mask;
      Slots[I] = Id;
    }
  }

  std::vector<uint32_t> Slots;
  size_t Count = 0;
};

/// Mixes a 64-bit key so the low bits IdIndex masks depend on all of it.
inline uint64_t mixKey(uint64_t K) {
  uint64_t H = K * 0x9e3779b97f4a7c15ULL;
  return H ^ (H >> 32);
}

} // namespace lalrcex

#endif // LALRCEX_SUPPORT_IDINDEX_H
