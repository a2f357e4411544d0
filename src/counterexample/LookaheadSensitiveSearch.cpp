//===- counterexample/LookaheadSensitiveSearch.cpp -------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "counterexample/LookaheadSensitiveSearch.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/TerminalSetPool.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace lalrcex;

std::vector<StateItemGraph::NodeId> LssPath::nodes() const {
  std::vector<StateItemGraph::NodeId> Out;
  Out.reserve(Steps.size());
  for (const LssStep &S : Steps)
    Out.push_back(S.Node);
  return Out;
}

//===----------------------------------------------------------------------===//
// Pooled search
//===----------------------------------------------------------------------===//

namespace {

/// A discovered vertex: a (node, pooled lookahead id) pair linked to its
/// BFS parent. 16 bytes flat in the vertex arena, vs a node id plus a
/// heap-allocated bitset copy in the reference implementation.
struct PooledVertex {
  StateItemGraph::NodeId Node;
  TerminalSetPool::SetId L;
  int32_t Parent;
  LssStep::Kind EdgeKind;
};

} // namespace

std::optional<LssPath> lalrcex::shortestLookaheadSensitivePath(
    const StateItemGraph &Graph, StateItemGraph::NodeId ConflictNode,
    Symbol ConflictTerm, bool PruneToReaching, ResourceGuard *Guard,
    LssStats *Stats, MetricsRegistry *Metrics) {
  ScopedTimer Timer(Metrics, metric::TimeLssNs);
  const Automaton &M = Graph.automaton();
  const Grammar &G = M.grammar();
  const GrammarAnalysis &Analysis = M.analysis();

  if (LALRCEX_FAULT_FIRES(LssPathFailure, 0))
    return std::nullopt;
  if (ConflictNode >= Graph.numNodes())
    throw SearchError("lss path: conflict node out of range");

  // Only explore state-items that can reach the conflict item at all.
  std::vector<bool> Relevant =
      PruneToReaching ? Graph.nodesReaching(ConflictNode)
                      : std::vector<bool>(Graph.numNodes(), true);

  StateItemGraph::NodeId StartNode =
      Graph.nodeFor(M.startState(), Item(G.augmentedProduction(), 0));
  if (StartNode == StateItemGraph::InvalidNode)
    throw SearchError("lss path: start item missing from start state");

  // Thread-local overlay over the graph's frozen pool; the guard is
  // charged for everything the search interns.
  TerminalSetPool Pool = TerminalSetPool::overlay(Graph.pool(), Guard);

  size_t Expanded = 0, Enqueued = 0, Pruned = 0;
  auto finish = [&] {
    if (Metrics) {
      const TerminalSetPool::Stats &PS = Pool.stats();
      Metrics->add(metric::LssSearches);
      Metrics->add(metric::LssExpanded, Expanded);
      Metrics->add(metric::LssEnqueued, Enqueued);
      Metrics->add(metric::LssDominancePruned, Pruned);
      Metrics->add(metric::LssSubsetChecks, PS.SubsetChecks);
      Metrics->add(metric::LssUnionCalls, PS.UnionCalls);
      Metrics->add(metric::LssUnionCacheHits, PS.UnionCacheHits);
      Metrics->gaugeMax(metric::LssPoolArenaBytes, PS.ArenaBytes);
    }
    if (!Stats)
      return;
    Stats->Expanded = Expanded;
    Stats->Enqueued = Enqueued;
    Stats->DominancePruned = Pruned;
    Stats->SubsetChecks = Pool.stats().SubsetChecks;
    Stats->PoolWideSets = Pool.stats().WideSets;
    Stats->PoolArenaBytes = Pool.stats().ArenaBytes;
    Stats->UnionCalls = Pool.stats().UnionCalls;
    Stats->UnionCacheHits = Pool.stats().UnionCacheHits;
  };

  if (!Relevant[StartNode]) {
    finish();
    return std::nullopt;
  }

  std::vector<PooledVertex> Vertices;
  // Per-node dominance frontier: the maximal lookahead ids admitted so
  // far. A candidate covered by any admitted set is pruned; DESIGN.md §5e
  // proves the surviving BFS still finds the reference path exactly.
  //
  // A production-step family — the dot-0 nodes (s, A -> .g) of one state
  // and nonterminal, i.e. one productionSteps() row — shares the frontier
  // of its row's first node. Nothing but production steps leads into a
  // dot-0 node (S' -> .S is never a step target), and every step into
  // (s, A) offers the same set to each relevant member, so the members'
  // frontiers would stay identical: one probe answers for all of them.
  //
  // SoA layout: each node's admitted ids live contiguously in one shared
  // slab, addressed by a 12-byte {Begin, Count, Cap} descriptor. Scanning
  // a frontier is a dense streak of SetIds instead of a pointer chase
  // through per-node heap vectors, and a node outgrowing its segment
  // relocates to the slab's end with doubled capacity (the abandoned
  // segment is bounded by geometric growth, like a vector's).
  struct NodeFrontier {
    uint32_t Begin = 0, Count = 0, Cap = 0;
  };
  std::vector<NodeFrontier> Frontier(Graph.numNodes());
  std::vector<TerminalSetPool::SetId> Slab;
  // Per-node union of all admitted elements, as raw words (maskWords()
  // per node, so the padded-stride kernels apply; padding words stay
  // zero). L ⊆ some Prev requires L ⊆ union, so a failed mask probe
  // admits without scanning the frontier; for |L| <= 1 the mask answer
  // is exact (an element in the union is in some one admitted set). Only
  // genuinely ambiguous candidates pay the linear containsAll scan.
  const unsigned MaskWords = Pool.maskWords();
  std::vector<uint64_t> UnionMask(size_t(Graph.numNodes()) * MaskWords, 0);

  // Unit edge costs make Dial's bucket queue two flat buckets: the depth
  // being drained and the depth being filled. Draining front-to-back
  // reproduces the reference BFS's FIFO order exactly.
  std::vector<int32_t> Buckets[2];
  std::vector<int32_t> *CurB = &Buckets[0], *NextB = &Buckets[1];

  // Adds L to Key's frontier unless an admitted set covers it; \returns
  // whether L was admitted.
  auto admit = [&](StateItemGraph::NodeId Key, TerminalSetPool::SetId L) {
    NodeFrontier &F = Frontier[Key];
    uint64_t *Mask = &UnionMask[size_t(Key) * MaskWords];
    if (F.Count != 0 && Pool.coveredByWords(L, Mask)) {
      // Exact via the mask: each element of L sits in some admitted
      // set, and a set of at most one element needs only one of them.
      if (Pool.count(L) <= 1)
        return false;
      const TerminalSetPool::SetId *Seen = Slab.data() + F.Begin;
      for (uint32_t I = 0; I != F.Count; ++I)
        if (Pool.containsAll(Seen[I], L))
          return false;
    }
    // L is new and maximal; admitted sets it covers are now redundant
    // (anything they would prune, L prunes too). The mask needs no
    // repair: removed sets are subsets of L, which stays admitted.
    {
      TerminalSetPool::SetId *Seen = Slab.data() + F.Begin;
      uint32_t Out = 0;
      for (uint32_t I = 0; I != F.Count; ++I)
        if (!Pool.containsAll(L, Seen[I]))
          Seen[Out++] = Seen[I];
      F.Count = Out;
    }
    if (F.Count == F.Cap) {
      // Relocate this node's segment to the slab end with doubled
      // capacity. Copy by index: resize may move the slab.
      uint32_t NewCap = F.Cap ? F.Cap * 2 : 4;
      uint32_t NewBegin = uint32_t(Slab.size());
      Slab.resize(Slab.size() + NewCap);
      std::copy(Slab.begin() + F.Begin, Slab.begin() + F.Begin + F.Count,
                Slab.begin() + NewBegin);
      F.Begin = NewBegin;
      F.Cap = NewCap;
    }
    Slab[F.Begin + F.Count++] = L;
    Pool.addToWords(L, Mask);
    return true;
  };
  auto push = [&](StateItemGraph::NodeId Node, TerminalSetPool::SetId L,
                  int32_t Parent, LssStep::Kind Kind) {
    Vertices.push_back(PooledVertex{Node, L, Parent, Kind});
    NextB->push_back(int32_t(Vertices.size()) - 1);
    ++Enqueued;
  };

  // No edge enters the start item, so its frontier is never probed.
  push(StartNode, Pool.singleton(G.eof().id()), -1, LssStep::Start);
  std::swap(CurB, NextB); // the start vertex is depth 0

  int32_t Goal = -1;
  while (!CurB->empty() && Goal < 0) {
    for (size_t H = 0; H != CurB->size() && Goal < 0; ++H) {
      // The BFS is polynomial and fast, but a cancelled or exhausted
      // guard must still be able to stop it (the "never hang" contract).
      if (Guard && Guard->step() != GuardStop::None) {
        finish();
        return std::nullopt;
      }
      int32_t VI = (*CurB)[H];
      ++Expanded;
      StateItemGraph::NodeId N = Vertices[VI].Node;
      TerminalSetPool::SetId L = Vertices[VI].L;

      // Goal test.
      if (N == ConflictNode && Pool.contains(L, ConflictTerm.id())) {
        Goal = VI;
        break;
      }

      // Transition edge: the precise lookahead set is preserved (and so
      // is its id — no copy).
      StateItemGraph::NodeId Succ = Graph.forwardTransition(N);
      if (Succ != StateItemGraph::InvalidNode && Relevant[Succ]) {
        if (admit(Succ, L))
          push(Succ, L, VI, LssStep::Transition);
        else
          ++Pruned;
      }

      // Production-step edges: L becomes followL(item) (paper §4), one
      // memoized table lookup plus at most one cached union, probed once
      // against the family's frontier, which its row's first node keys.
      const Item &Itm = Graph.itemOf(N);
      Symbol Next = Itm.afterDot(G);
      if (Next.valid() && G.isNonterminal(Next)) {
        StateItemGraph::NodeRange Steps = Graph.productionSteps(N);
        size_t Members = 0;
        for (StateItemGraph::NodeId Step : Steps)
          Members += Relevant[Step];
        // Pull the family's mask row toward the cache while the
        // follow-set lookup (and possibly a cached union) is in flight;
        // admit's first real work is the coveredByWords probe against
        // exactly these words.
        if (Members != 0)
          __builtin_prefetch(&UnionMask[size_t(*Steps.begin()) * MaskWords]);
        TerminalSetPool::SetId Follow =
            Analysis.firstOfSequenceId(Itm.Prod, Itm.Dot + 1);
        if (Analysis.suffixNullable(Itm.Prod, Itm.Dot + 1))
          Follow = Pool.unionSets(Follow, L);
        if (Members == 0)
          continue;
        if (!admit(*Steps.begin(), Follow)) {
          Pruned += Members;
          continue;
        }
        for (StateItemGraph::NodeId Step : Steps)
          if (Relevant[Step])
            push(Step, Follow, VI, LssStep::Production);
      }
    }
    CurB->clear();
    std::swap(CurB, NextB);
  }

  finish();
  if (Goal < 0)
    return std::nullopt;

  LssPath Path;
  for (int32_t VI = Goal; VI >= 0; VI = Vertices[VI].Parent)
    Path.Steps.push_back(LssStep{Vertices[VI].Node, Vertices[VI].EdgeKind,
                                 Pool.materialize(Vertices[VI].L)});
  std::reverse(Path.Steps.begin(), Path.Steps.end());
  return Path;
}

//===----------------------------------------------------------------------===//
// Reference implementation (pre-pool), retained for equivalence testing
// and the pooled-vs-baseline benchmark sections.
//===----------------------------------------------------------------------===//

namespace {

/// A discovered vertex of the lookahead-sensitive graph, linked to its BFS
/// parent for path reconstruction.
struct Vertex {
  StateItemGraph::NodeId Node;
  IndexSet Lookaheads;
  int Parent;
  LssStep::Kind EdgeKind;
};

} // namespace

std::optional<LssPath> lalrcex::shortestLookaheadSensitivePathReference(
    const StateItemGraph &Graph, StateItemGraph::NodeId ConflictNode,
    Symbol ConflictTerm, bool PruneToReaching, ResourceGuard *Guard) {
  const Automaton &M = Graph.automaton();
  const Grammar &G = M.grammar();
  const GrammarAnalysis &Analysis = M.analysis();

  if (LALRCEX_FAULT_FIRES(LssPathFailure, 0))
    return std::nullopt;
  if (ConflictNode >= Graph.numNodes())
    throw SearchError("lss path: conflict node out of range");

  // Only explore state-items that can reach the conflict item at all.
  std::vector<bool> Relevant =
      PruneToReaching ? Graph.nodesReaching(ConflictNode)
                      : std::vector<bool>(Graph.numNodes(), true);

  StateItemGraph::NodeId StartNode =
      Graph.nodeFor(M.startState(), Item(G.augmentedProduction(), 0));
  if (StartNode == StateItemGraph::InvalidNode)
    throw SearchError("lss path: start item missing from start state");
  if (!Relevant[StartNode])
    return std::nullopt;

  std::vector<Vertex> Vertices;
  // Visited lookahead sets per node, compared exactly (hashing alone would
  // risk dropping a genuinely new vertex on collision).
  std::unordered_map<StateItemGraph::NodeId, std::vector<IndexSet>> Visited;
  std::deque<int> Work;

  auto enqueue = [&](StateItemGraph::NodeId Node, IndexSet L, int Parent,
                     LssStep::Kind Kind) {
    std::vector<IndexSet> &Seen = Visited[Node];
    for (const IndexSet &Prev : Seen)
      if (Prev == L)
        return;
    Seen.push_back(L);
    Vertices.push_back(Vertex{Node, std::move(L), Parent, Kind});
    Work.push_back(int(Vertices.size()) - 1);
  };

  IndexSet StartL(G.numTerminals());
  StartL.insert(G.eof().id());
  enqueue(StartNode, std::move(StartL), -1, LssStep::Start);

  int Goal = -1;
  while (!Work.empty() && Goal < 0) {
    // The BFS is polynomial and fast, but a cancelled or exhausted guard
    // must still be able to stop it (the "never hang" contract).
    if (Guard && Guard->step() != GuardStop::None)
      return std::nullopt;
    int VI = Work.front();
    Work.pop_front();
    // Note: Vertices may reallocate inside the loop; index anew each time.
    StateItemGraph::NodeId N = Vertices[VI].Node;

    // Goal test.
    if (N == ConflictNode &&
        Vertices[VI].Lookaheads.contains(ConflictTerm.id())) {
      Goal = VI;
      break;
    }

    // Transition edge: the precise lookahead set is preserved.
    StateItemGraph::NodeId Succ = Graph.forwardTransition(N);
    if (Succ != StateItemGraph::InvalidNode && Relevant[Succ]) {
      IndexSet L = Vertices[VI].Lookaheads;
      enqueue(Succ, std::move(L), VI, LssStep::Transition);
    }

    // Production-step edges: L becomes followL(item) (paper §4).
    const Item &Itm = Graph.itemOf(N);
    Symbol Next = Itm.afterDot(G);
    if (Next.valid() && G.isNonterminal(Next)) {
      const Production &P = G.production(Itm.Prod);
      IndexSet Follow = Analysis.firstOfSequence(P.Rhs, Itm.Dot + 1,
                                                 &Vertices[VI].Lookaheads);
      for (StateItemGraph::NodeId Step : Graph.productionSteps(N)) {
        if (!Relevant[Step])
          continue;
        enqueue(Step, Follow, VI, LssStep::Production);
      }
    }
  }

  if (Goal < 0)
    return std::nullopt;

  LssPath Path;
  for (int VI = Goal; VI >= 0; VI = Vertices[VI].Parent)
    Path.Steps.push_back(LssStep{Vertices[VI].Node, Vertices[VI].EdgeKind,
                                 Vertices[VI].Lookaheads});
  std::reverse(Path.Steps.begin(), Path.Steps.end());
  return Path;
}
