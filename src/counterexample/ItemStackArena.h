//===- counterexample/ItemStackArena.h - Canonical item sequences -*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unifying search's interned item sequences, indexed by the id-only
/// hash index (support/IdIndex.h) its visited set also uses (DESIGN.md
/// 5c). Internal to UnifyingSearch.cpp; the header exists so tests can
/// check the arena against a plain vector model.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_ITEMSTACKARENA_H
#define LALRCEX_COUNTEREXAMPLE_ITEMSTACKARENA_H

#include "counterexample/StateItemGraph.h"
#include "support/Budget.h"
#include "support/IdIndex.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace lalrcex {
namespace unifying_detail {

using NodeId = StateItemGraph::NodeId;

/// Sentinel id for an empty persistent chain/sequence.
constexpr uint32_t NilChain = ~uint32_t(0);

/// Hash-consed persistent sequences of state-item nodes, grown at either
/// end. Each entry adds one node to the back (push) or the front
/// (prepend) of the sequence its link names, and carries the sequence's
/// polynomial content hash, so both ends cost one intern probe. Interning
/// by content makes ids canonical: equal sequences get one id however
/// they were built, so the visited set compares 32-bit ids instead of
/// vectors. A hash match settles by link when the slot was built the same
/// way, and by comparing contents otherwise, so a collision costs a
/// compare, never a wrong id. A compare that finds equal contents is
/// remembered as an alias of that build, so a build is compared once.
///
/// Prepends cost one probe, but an entry added at the front sits above the
/// nodes a pop from the back removes. The first pop that meets one re-links
/// it, and every entry holding one of its prefixes, as pushes, so that pop
/// and every later one take one step per node.
class ItemStackArena {
public:
  explicit ItemStackArena(ResourceGuard &Guard) : Guard(Guard) {}

  /// The sequence \p Id extended by \p N at the back (the stack top).
  uint32_t push(uint32_t Id, NodeId N) { return intern(Id, N, false); }

  /// The sequence \p Id extended by \p N at the front (below the whole
  /// stack). A one-node sequence is always built as a push.
  uint32_t prepend(uint32_t Id, NodeId N) {
    return intern(Id, N, Id != NilChain);
  }

  NodeId top(uint32_t Id) const {
    const Entry &E = Entries[Id];
    return E.Front ? E.Far : E.Node;
  }
  /// The sequence front (the bottom of the stack).
  NodeId front(uint32_t Id) const {
    const Entry &E = Entries[Id];
    return E.Front ? E.Node : E.Far;
  }
  uint32_t depth(uint32_t Id) const {
    return Id == NilChain ? 0 : Entries[Id].Depth;
  }

  /// The node \p K levels below the top (K = 0 is the top itself).
  NodeId fromTop(uint32_t Id, unsigned K) const {
    for (;; Id = Entries[Id].Link) {
      const Entry &E = Entries[Id];
      if (K == 0)
        return top(Id);
      if (!E.Front)
        --K;
      else if (K + 1 == E.Depth)
        return E.Node;
    }
  }

  /// The sequence with the top \p K nodes removed (K <= depth). A pop that
  /// meets an entry added at the front re-links it as a push first, so it
  /// takes one step per popped node.
  uint32_t popN(uint32_t Id, unsigned K) {
    if (K == depth(Id))
      return NilChain;
    for (; K != 0; --K) {
      if (Entries[Id].Front)
        relinkAsPushes(Id);
      Id = Entries[Id].Link;
    }
    return Id;
  }

  bool contains(uint32_t Id, NodeId N) const {
    for (; Id != NilChain; Id = Entries[Id].Link)
      if (Entries[Id].Node == N)
        return true;
    return false;
  }

  /// Entries created so far (one per distinct sequence interned).
  size_t entries() const { return Entries.size(); }
  /// Hash matches that needed a content compare to settle.
  size_t compares() const { return Compares; }

private:
  struct Entry {
    uint64_t Hash;      // sum of code(x_i) * Base^(Depth-1-i) over the nodes
    uint32_t Link;      // the sequence without Node
    NodeId Node;        // the node this entry adds
    NodeId Far;         // the node at the other end
    uint32_t Depth : 31;
    uint32_t Front : 1; // Node was added at the front, not the back
  };
  /// Another build (Link with Node added at one end) of entry Id.
  struct Alias {
    uint32_t Link;
    NodeId Node;
    uint32_t Front;
    uint32_t Id;
  };
  // The accounting charge for a record's index slot: the 4-byte id slots
  // cost 8 to 16 bytes per record at load 1/4 to 1/2, and the power table
  // at most 8 more per entry (one word per depth, and each depth took an
  // entry).
  static constexpr size_t IndexSlotBytes = 3 * sizeof(uint64_t);
  static constexpr uint64_t Base = 0xff51afd7ed558ccdULL; // odd

  /// A node's hash code; never 0, so no node is invisible to the hash.
  static uint64_t code(NodeId N) { return mixKey(uint64_t(N) + 1); }
  uint64_t hashOf(uint32_t Id) const {
    return Id == NilChain ? 0 : Entries[Id].Hash;
  }
  static uint64_t buildHash(uint32_t Link, NodeId N, bool Front) {
    return mixKey(mixKey(Link) ^ ((uint64_t(N) << 1) | Front));
  }
  uint64_t power(uint32_t E) {
    while (Powers.size() <= E)
      Powers.push_back(Powers.back() * Base);
    return Powers[E];
  }

  /// Writes the depth(Id) nodes of \p Id, front to back, to \p Out.
  void fill(uint32_t Id, NodeId *Out) const {
    size_t Lo = 0, Hi = depth(Id);
    for (; Id != NilChain; Id = Entries[Id].Link)
      Out[Entries[Id].Front ? Lo++ : --Hi] = Entries[Id].Node;
  }

  /// Re-links entry \p Id, and every entry holding one of its prefixes,
  /// as the push that builds it from the next shorter prefix. Ids and
  /// contents stay the same. Pushes are never re-linked, so a chain that
  /// prepends grew pays for this on its first pop only; later pops of it,
  /// and of every sequence pushed on it, take one step per node. (This and
  /// sameSequence() stay out of line, which keeps intern()'s probe small.)
  [[gnu::noinline]] void relinkAsPushes(uint32_t Id) {
    Rebuilt.resize(depth(Id));
    fill(Id, Rebuilt.data());
    uint32_t Prefix = NilChain;
    for (size_t I = 0; I + 1 < Rebuilt.size(); ++I) {
      uint32_t Next = push(Prefix, Rebuilt[I]);
      setPushBuild(Next, Prefix, Rebuilt[I]);
      Prefix = Next;
    }
    setPushBuild(Id, Prefix, Rebuilt.back());
  }
  void setPushBuild(uint32_t Id, uint32_t Link, NodeId N) {
    Entry &E = Entries[Id];
    E.Link = Link;
    E.Node = N;
    E.Far = Link == NilChain ? N : front(Link);
    E.Front = false;
  }

  /// True when entry \p Id, of the same hash and depth, holds \p Link with
  /// \p N added at the front or back. An alias answers a build that was
  /// settled before; otherwise the contents are compared, and an equal
  /// result is kept as an alias.
  [[gnu::noinline]] bool sameSequence(uint32_t Id, uint32_t Link, NodeId N,
                                      bool Front) {
    uint32_t &Slot = AliasIndex.probe(
        buildHash(Link, N, Front),
        [&](uint32_t A) {
          const Alias &X = Aliases[A];
          return X.Link == Link && X.Node == N && bool(X.Front) == Front;
        },
        [&](uint32_t A) {
          const Alias &X = Aliases[A];
          return buildHash(X.Link, X.Node, X.Front);
        });
    if (Slot != IdIndex::Empty)
      return Aliases[Slot].Id == Id;
    ++Compares;
    if (!sameContents(Id, Link, N, Front))
      return false;
    Aliases.push_back(Alias{Link, N, Front, Id});
    AliasIndex.publish(Slot, uint32_t(Aliases.size() - 1));
    Guard.chargeBytes(sizeof(Alias) + IndexSlotBytes);
    return true;
  }

  /// True when entry \p Id holds \p Link with \p N added at the front or
  /// back. Both sides must have the same depth.
  bool sameContents(uint32_t Id, uint32_t Link, NodeId N, bool Front) {
    size_t D = Entries[Id].Depth;
    Stored.resize(D);
    Probed.resize(D);
    fill(Id, Stored.data());
    fill(Link, Probed.data() + (Front ? 1 : 0));
    Probed[Front ? 0 : D - 1] = N;
    return Stored == Probed;
  }

  uint32_t intern(uint32_t Link, NodeId N, bool Front) {
    uint32_t Depth = depth(Link) + 1;
    uint64_t Hash = Front ? code(N) * power(Depth - 1) + hashOf(Link)
                          : hashOf(Link) * Base + code(N);
    uint32_t &Slot = Intern.probe(
        mixKey(Hash),
        [&](uint32_t Id) {
          const Entry &E = Entries[Id];
          if (E.Hash != Hash || E.Depth != Depth)
            return false;
          if (E.Link == Link && E.Node == N && bool(E.Front) == Front)
            return true;
          return sameSequence(Id, Link, N, Front);
        },
        [&](uint32_t Id) { return mixKey(Entries[Id].Hash); });
    if (Slot != IdIndex::Empty)
      return Slot;
    Entry E;
    E.Hash = Hash;
    E.Link = Link;
    E.Node = N;
    E.Far = Link == NilChain ? N : Front ? top(Link) : front(Link);
    E.Depth = Depth;
    E.Front = Front;
    // The key is stored before its id is published, so an allocation
    // failure here cannot leave the index naming a missing entry.
    Entries.push_back(E);
    Intern.publish(Slot, uint32_t(Entries.size() - 1));
    Guard.chargeBytes(sizeof(Entry) + IndexSlotBytes);
    return Slot;
  }

  ResourceGuard &Guard;
  std::vector<Entry> Entries;
  IdIndex Intern; // entry ids, keyed by the contents of Entries[id]
  std::vector<Alias> Aliases;
  IdIndex AliasIndex; // alias ids, keyed by the build of Aliases[id]
  std::vector<uint64_t> Powers{1}; // Powers[i] = Base^i
  size_t Compares = 0;
  // Scratch, reused so a probe or pop allocates nothing once warm.
  std::vector<NodeId> Stored, Probed, Rebuilt;
};

} // namespace unifying_detail
} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_ITEMSTACKARENA_H
