//===- lr/Item.h - LR production items -------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LR item is a production with a dot position marking how much of the
/// right-hand side has been recognized.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_LR_ITEM_H
#define LALRCEX_LR_ITEM_H

#include "grammar/Grammar.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace lalrcex {

/// A production item "A -> X1 ... Xk . Xk+1 ... Xn" identified by a
/// production index and the dot position k.
struct Item {
  uint32_t Prod = 0;
  uint32_t Dot = 0;

  Item() = default;
  Item(uint32_t Prod, uint32_t Dot) : Prod(Prod), Dot(Dot) {}

  /// A single integer key, usable for hashing and ordering.
  uint64_t key() const { return (uint64_t(Prod) << 32) | Dot; }

  bool operator==(const Item &Other) const { return key() == Other.key(); }
  bool operator!=(const Item &Other) const { return key() != Other.key(); }
  bool operator<(const Item &Other) const { return key() < Other.key(); }

  /// \returns true if the dot is at the end of the production (the item is
  /// a reduce item).
  bool atEnd(const Grammar &G) const {
    return Dot == G.production(Prod).Rhs.size();
  }

  /// The symbol immediately after the dot; invalid for reduce items.
  Symbol afterDot(const Grammar &G) const {
    const Production &P = G.production(Prod);
    return Dot < P.Rhs.size() ? P.Rhs[Dot] : Symbol();
  }

  /// The symbol immediately before the dot; invalid when Dot == 0.
  Symbol beforeDot(const Grammar &G) const {
    const Production &P = G.production(Prod);
    return Dot > 0 ? P.Rhs[Dot - 1] : Symbol();
  }

  /// The item with the dot advanced by one symbol.
  Item advanced() const { return Item(Prod, Dot + 1); }

  /// The item with the dot retracted by one symbol (Dot must be > 0).
  Item retracted() const { return Item(Prod, Dot - 1); }
};

/// Hash of a sorted kernel, for tables that intern states by kernel.
struct KernelHash {
  size_t operator()(const std::vector<Item> &Kernel) const {
    uint64_t H = 0x9e3779b97f4a7c15ULL ^ Kernel.size();
    for (const Item &I : Kernel) {
      H = (H ^ I.key()) * 0xff51afd7ed558ccdULL;
      H ^= H >> 29;
    }
    return size_t(H);
  }
};

} // namespace lalrcex

template <> struct std::hash<lalrcex::Item> {
  size_t operator()(const lalrcex::Item &I) const {
    return std::hash<uint64_t>()(I.key());
  }
};

#endif // LALRCEX_LR_ITEM_H
