//===- counterexample/UnifyingSearch.cpp -----------------------*- C++ -*-===//
//
// Part of lalrcex.
//
// Search-core data layout (see DESIGN.md "Parallelism and search-core
// data structures"):
//
//   - Item sequences are interned in an arena (ItemStackArena.h): a
//     configuration holds a 32-bit sequence id, and each arena entry adds
//     one node at the back (push) or the front (prepend) of the sequence
//     it links to, so either end costs one intern probe and successors
//     share structure with their parent. Entries are interned by a
//     polynomial content hash, so equal sequences get one id however
//     they were built, and the visited-set key is two ids plus a flag
//     byte with O(1) equality.
//   - The sequence intern table and the visited set are open-addressing
//     indexes whose 4-byte slots hold only ids; a probe reads the key
//     back from the arena entry or pool configuration the id names, so
//     a probe allocates nothing; only growth, at load 1/2, does.
//   - Derivation ledgers are persistent two-chain deques (a front chain
//     for prepends, a back chain for appends), so the reverse-transition
//     prepend that used to be a vector front-insert is O(1).
//   - The frontier is a monotone bucket queue (Dial's algorithm): edge
//     costs are small dense constants, so a circular array of FIFO
//     buckets replaces the binary heap's O(log n) pushes and pops.
//   - Saturation: once the configurations queued at costs up to the
//     popped cost plus the smallest successor cost cover every pop the
//     step budget still allows, with one more configuration queued, the
//     search generates no more successors; later pops are counted and
//     goal-tested only. Statuses, counts and examples are unchanged
//     (DESIGN.md 5c).
//   - Guard.chargeBytes is charged per new stack entry and per admitted
//     configuration, at fixed per-item rates (DESIGN.md 5c); a saturated
//     search charges nothing more.
//
// Each search runs on one thread; examineAll runs the searches of
// different conflicts concurrently (DESIGN.md 5h records why the
// boundary stays there).
//
//===----------------------------------------------------------------------===//

#include "counterexample/UnifyingSearch.h"

#include "counterexample/ItemStackArena.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <algorithm>
#include <new>

using namespace lalrcex;

namespace {

using namespace unifying_detail;

// Action costs. Shifts, reverse shifts, and reductions are cheap;
// production steps are discouraged (they grow the example), and repeating
// a production step within the same state pays a surcharge so that
// potentially infinite expansions are postponed behind every other option
// (paper §5.4). Reverse transitions off the shortest lookahead-sensitive
// path are only possible in extended search and are costed like a fresh
// exploration. The bucket queue requires non-negative deltas, so the
// configurable duplicate surcharge is clamped at zero.
constexpr int ShiftCost = 1;
constexpr int RevTransitionCost = 1;
constexpr int ProductionCost = 5;
constexpr int RevProductionCost = 3;
constexpr int ReduceCost = 1;
constexpr int ExtendedRevTransitionCost = 100;
/// The smallest cost a successor can add (the duplicate surcharge only
/// raises a production step's); it decides saturation.
constexpr int MinDelta =
    std::min({ShiftCost, RevTransitionCost, ProductionCost, RevProductionCost,
              ReduceCost, ExtendedRevTransitionCost});

/// Persistent chains of derivation handles. Unlike item stacks these are
/// not interned (ledgers are never used as keys); a chain id plus the
/// arena gives an immutable singly-linked list that configurations share
/// structurally, so copying a configuration copies two 32-bit ids per
/// side instead of a vector of shared_ptrs.
class DerivChainArena {
public:
  explicit DerivChainArena(ResourceGuard &Guard) : Guard(Guard) {}

  uint32_t push(uint32_t Parent, DerivPtr D) {
    Entries.push_back(Entry{Parent, std::move(D)});
    Guard.chargeBytes(sizeof(Entry));
    return uint32_t(Entries.size() - 1);
  }

  const DerivPtr &at(uint32_t Id) const { return Entries[Id].D; }
  uint32_t parent(uint32_t Id) const { return Entries[Id].Parent; }

private:
  struct Entry {
    uint32_t Parent;
    DerivPtr D;
  };
  ResourceGuard &Guard;
  std::vector<Entry> Entries;
};

/// One simulated parser copy: an interned item stack and a derivation
/// ledger as a two-chain persistent deque. The front chain's head is the
/// ledger's first element (prepends are O(1)); the back chain's head is
/// its last element (appends and pops are O(1), with a lazy transfer from
/// the front chain when the back runs dry).
struct SideRef {
  uint32_t Items = NilChain;
  uint32_t Front = NilChain;
  uint32_t Back = NilChain;
  uint32_t Reals = 0; // derivations excluding dot markers
};
static_assert(sizeof(SideRef) == 16);

/// A product-parser search configuration (paper Fig. 8). Trivially
/// copyable: 40 bytes of ids and flags, all heavy state lives in arenas.
struct Config {
  SideRef S1, S2;
  int Cost = 0;
  uint8_t Flags = 0;
};
static_assert(sizeof(Config) == 40);

constexpr uint8_t FlagReduce1 = 1;
constexpr uint8_t FlagReduce2 = 2;
constexpr uint8_t FlagShifted = 4;

bool awaitingConflictShift(const Config &C) {
  return (C.Flags & (FlagReduce1 | FlagReduce2)) ==
             (FlagReduce1 | FlagReduce2) &&
         !(C.Flags & FlagShifted);
}

/// Hash of a visited-set key: two canonical item-stack ids plus the flag
/// byte (derivation contents do not affect which successors are
/// reachable, so the first representative wins).
uint64_t visitHash(uint32_t S1, uint32_t S2, uint8_t Flags) {
  return mixKey((uint64_t(S1) << 29) ^ (uint64_t(S2) << 7) ^ Flags);
}

/// Monotone circular bucket queue (Dial's algorithm). Every successor
/// costs at most MaxDelta more than its parent and the minimum extracted
/// cost never decreases, so NumBuckets = MaxDelta + 1 FIFO buckets indexed
/// by cost modulo NumBuckets replace a binary heap; push and pop are O(1).
class BucketQueue {
public:
  explicit BucketQueue(size_t MaxDelta) : Buckets(MaxDelta + 1) {}

  void push(int Cost, uint32_t Id) {
    Buckets[size_t(Cost) % Buckets.size()].push_back(Id);
    ++Count;
    ++PushCount;
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// The lowest-cost configuration; FIFO among equal costs.
  uint32_t pop() {
    ++PopCount;
    for (;;) {
      std::vector<uint32_t> &B = Buckets[size_t(Cur) % Buckets.size()];
      if (Head < B.size()) {
        --Count;
        return B[Head++];
      }
      B.clear();
      Head = 0;
      ++Cur;
    }
  }

  /// Configurations still queued at costs up to \p Cost, which must be
  /// below the current minimum plus the bucket count.
  size_t queuedThrough(int Cost) const {
    size_t N = 0;
    for (int K = Cur; K <= Cost; ++K)
      N += Buckets[size_t(K) % Buckets.size()].size() - (K == Cur ? Head : 0);
    return N;
  }

  size_t pushes() const { return PushCount; }
  size_t pops() const { return PopCount; }

private:
  std::vector<std::vector<uint32_t>> Buckets;
  size_t Head = 0; // consumed prefix of the current bucket
  size_t Count = 0;
  size_t PushCount = 0; // lifetime totals, flushed into unifying.* metrics
  size_t PopCount = 0;
  int Cur = 0; // current minimum cost (monotone)
};

/// Flushes a search's lifetime queue, item-sequence and saturation totals
/// into the metrics registry when searchImpl exits, including via
/// SearchError / bad_alloc.
struct SearchMetricsFlusher {
  const BucketQueue &Queue;
  const ItemStackArena &Items;
  const size_t &SaturatedPops;
  MetricsRegistry *Metrics;
  ~SearchMetricsFlusher() {
    if (!Metrics)
      return;
    Metrics->add(metric::UnifyingQueuePushes, Queue.pushes());
    Metrics->add(metric::UnifyingQueuePops, Queue.pops());
    Metrics->add(metric::UnifyingSequenceEntries, Items.entries());
    Metrics->add(metric::UnifyingSequenceCompares, Items.compares());
    Metrics->add(metric::UnifyingSaturatedPops, SaturatedPops);
  }
};

} // namespace

UnifyingSearch::UnifyingSearch(const StateItemGraph &Graph)
    : Graph(Graph), G(Graph.grammar()),
      Analysis(Graph.automaton().analysis()) {}

UnifyingResult
UnifyingSearch::search(NodeId ReduceNode, NodeId OtherNode,
                       Symbol ConflictTerm, const LssPath *Slsp,
                       const UnifyingOptions &Opts) const {
  UnifyingResult Result;
  ScopedTimer Timer(Opts.Metrics, metric::TimeUnifyingNs);
  ResourceLimits Limits;
  Limits.MaxSteps = Opts.MaxConfigurations;
  Limits.MaxBytes = Opts.MemoryLimitBytes;
  if (Opts.TimeLimitSeconds != 0)
    Limits.WallClockSeconds = Opts.TimeLimitSeconds;
  ResourceGuard Guard(Limits, Opts.Cancellation);
  Guard.attachMetrics(Opts.Metrics);

  // When a guard stops the search (and metrics are on), the moment its
  // step() returned the stop; time.guard_overshoot_ns runs from there to
  // this function's return, so it covers searchImpl's teardown.
  std::optional<std::chrono::steady_clock::time_point> StoppedAt;

  // The search boundary: malformed search state (SearchError) and real
  // allocation failure degrade to a structured Error result instead of
  // propagating; partial statistics survive.
  try {
    searchImpl(ReduceNode, OtherNode, ConflictTerm, Slsp, Opts, Guard, Result,
               StoppedAt);
  } catch (const SearchError &E) {
    Result.Status = UnifyingStatus::Error;
    Result.Message = E.what();
    Result.Example.reset();
  } catch (const std::bad_alloc &) {
    Result.Status = UnifyingStatus::Error;
    Result.Message = "allocation failure during unifying search";
    Result.BadAlloc = true;
    Result.Example.reset();
  }
  Result.PeakBytes = Guard.peakBytes();
  if (MetricsRegistry *M = Opts.Metrics) {
    M->add(metric::UnifyingSearches);
    M->add(metric::UnifyingConfigurations, Result.ConfigurationsExplored);
    M->observe(metric::EffortConflictConfigurations,
               Result.ConfigurationsExplored);
    M->gaugeMax(metric::UnifyingPeakBytes, Result.PeakBytes);
    switch (Result.Status) {
    case UnifyingStatus::Found:
      M->add(metric::UnifyingFound);
      break;
    case UnifyingStatus::Exhausted:
      M->add(metric::UnifyingExhausted);
      break;
    case UnifyingStatus::TimedOut:
    case UnifyingStatus::LimitHit:
    case UnifyingStatus::MemoryLimit:
    case UnifyingStatus::Cancelled:
      M->add(metric::UnifyingBudgetStops);
      break;
    case UnifyingStatus::Error:
      break;
    }
    if (StoppedAt)
      M->observe(metric::TimeGuardOvershootNs,
                 uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - *StoppedAt)
                              .count()));
  }
  return Result;
}

void UnifyingSearch::searchImpl(
    NodeId ReduceNode, NodeId OtherNode, Symbol ConflictTerm,
    const LssPath *Slsp, const UnifyingOptions &Opts, ResourceGuard &Guard,
    UnifyingResult &Result,
    std::optional<std::chrono::steady_clock::time_point> &StoppedAt) const {
  // Malformed caller input is a recoverable error, not UB: these checks
  // replace what used to be implicit assumptions on valid node ids.
  if (ReduceNode >= Graph.numNodes() ||
      !Graph.itemOf(ReduceNode).atEnd(G))
    throw SearchError("unifying search: reduce node is not a reduce item");
  if (OtherNode >= Graph.numNodes())
    throw SearchError("unifying search: conflicting node out of range");

  const int DupCost = std::max(0, Opts.DuplicateProductionCost);

  // States admissible for reverse transitions in default mode (§6). In
  // extended search, off-path states are allowed but cost extra.
  std::vector<bool> SlspState;
  if (Slsp) {
    SlspState.assign(Graph.automaton().numStates(), false);
    for (const LssStep &Step : Slsp->Steps)
      SlspState[Graph.stateOf(Step.Node)] = true;
  }

  ItemStackArena IA(Guard);
  DerivChainArena DA(Guard);
  std::vector<Config> Pool;
  IdIndex Visited; // pool ids, keyed by the items and flags of Pool[id]
  // Sized by the largest cost a successor can add.
  BucketQueue Queue(size_t(std::max(
      {ShiftCost, RevTransitionCost, ProductionCost + DupCost,
       RevProductionCost, ReduceCost, ExtendedRevTransitionCost})));
  // Set once the queue holds every configuration the step budget can
  // still pop (see processConfig); never cleared.
  bool Saturated = false;
  size_t SaturatedPops = 0;
  SearchMetricsFlusher Flusher{Queue, IA, SaturatedPops, Opts.Metrics};

  // One leaf per symbol: derivation trees are immutable, so every shift
  // of the same symbol can share one leaf instead of allocating anew.
  std::vector<DerivPtr> LeafCache(G.numSymbols());
  auto leafOf = [&](Symbol Z) -> const DerivPtr & {
    DerivPtr &P = LeafCache[size_t(Z.id())];
    if (!P)
      P = Derivation::leaf(Z);
    return P;
  };

  // Ledger operations over the two-chain deque.
  auto appendDeriv = [&](SideRef &S, DerivPtr D) {
    if (!D->isDot())
      ++S.Reals;
    S.Back = DA.push(S.Back, std::move(D));
  };
  auto prependDeriv = [&](SideRef &S, DerivPtr D) {
    if (!D->isDot())
      ++S.Reals;
    S.Front = DA.push(S.Front, std::move(D));
  };
  std::vector<DerivPtr> TransferScratch;
  auto normalizeBack = [&](SideRef &S) {
    // Lazy deque transfer: when the back chain runs dry, the front chain
    // (head = first element) is replayed onto the back chain (head = last
    // element). Rare — only a reduction popping past every append since
    // the last prepend triggers it.
    if (S.Back != NilChain || S.Front == NilChain)
      return;
    TransferScratch.clear();
    for (uint32_t I = S.Front; I != NilChain; I = DA.parent(I))
      TransferScratch.push_back(DA.at(I)); // first .. last
    S.Front = NilChain;
    for (DerivPtr &D : TransferScratch)
      S.Back = DA.push(S.Back, std::move(D));
  };
  auto ledgerEmpty = [](const SideRef &S) {
    return S.Front == NilChain && S.Back == NilChain;
  };
  auto lastDeriv = [&](SideRef &S) -> const DerivPtr & {
    normalizeBack(S);
    return DA.at(S.Back);
  };
  auto popBackDeriv = [&](SideRef &S) {
    normalizeBack(S);
    DerivPtr D = DA.at(S.Back);
    S.Back = DA.parent(S.Back);
    if (!D->isDot())
      --S.Reals;
    return D;
  };

  // Admission: insert the (items, items, flags) key, charging the pool,
  // visited-set, and queue growth the admitted configuration will cause.
  // Derivation-ledger work happens only after admission, so the
  // duplicate-hit path costs two interning lookups and one probe.
  //
  // The visited index holds pool ids and reads each key back from Pool, so
  // an admitted configuration must be in Pool before the next admission.
  // Every successor rule below guarantees it: a successful admit is
  // followed by that configuration's enqueue, or by a throw that ends the
  // search.
  //
  // AdmitBytes is the accounting charge per admitted configuration: the
  // pool slot plus a fixed 36-byte visited-set charge, an upper bound on
  // the 8 to 16 bytes per configuration that its id slot costs.
  constexpr size_t AdmitBytes = sizeof(Config) + 36;
  auto admit = [&](uint32_t I1, uint32_t I2, uint8_t Flags) {
    uint32_t &Slot = Visited.probe(
        visitHash(I1, I2, Flags),
        [&](uint32_t Id) {
          const Config &C = Pool[Id];
          return C.S1.Items == I1 && C.S2.Items == I2 && C.Flags == Flags;
        },
        [&](uint32_t Id) {
          const Config &C = Pool[Id];
          return visitHash(C.S1.Items, C.S2.Items, C.Flags);
        });
    if (Slot != IdIndex::Empty)
      return false;
    Visited.publish(Slot, uint32_t(Pool.size()));
    // The pool, visited set, and arenas only grow until the search ends,
    // so bytes are charged on admission and never released; a tripped
    // byte budget surfaces at the next step() check as MemoryLimit.
    Guard.chargeBytes(AdmitBytes);
    return true;
  };
  auto enqueue = [&](const Config &N) {
    Pool.push_back(N);
    Queue.push(N.Cost, uint32_t(Pool.size() - 1));
  };

  {
    Config C;
    C.S1.Items = IA.push(NilChain, ReduceNode);
    C.S2.Items = IA.push(NilChain, OtherNode);
    // Only a reduce/reduce conflict must complete both reductions.
    C.Flags = Graph.itemOf(OtherNode).atEnd(G) ? 0 : FlagReduce2;
    admit(C.S1.Items, C.S2.Items, C.Flags); // the visited set is empty
    enqueue(C);
  }

  // True if terminal T may appear next after the new dot-0 item; used to
  // prune production steps taken while the conflict shift is pending.
  auto usefulWhileAwaiting = [&](NodeId Step) {
    unsigned Prod = Graph.itemOf(Step).Prod;
    return Analysis.suffixCanBeginWith(Prod, 0, ConflictTerm) ||
           Analysis.suffixNullable(Prod, 0);
  };

  // Collects the last `Count` real derivations (with any interleaved dot
  // markers) from the ledger back into production children.
  auto popChildren = [&](SideRef &S, unsigned Count) {
    std::vector<DerivPtr> Children;
    unsigned Reals = 0;
    while (Reals < Count) {
      normalizeBack(S);
      if (S.Back == NilChain)
        throw SearchError(
            "unifying search: derivation ledger underflow during reduction");
      DerivPtr D = DA.at(S.Back);
      S.Back = DA.parent(S.Back);
      if (!D->isDot()) {
        ++Reals;
        --S.Reals;
      }
      Children.push_back(std::move(D));
    }
    std::reverse(Children.begin(), Children.end());
    return Children;
  };

  // --------------------------------------------------------------------
  // Successor rules (Fig. 10). Each one interns, admits, does its ledger
  // work and enqueues every successor as soon as it finds it; expand()
  // calls them in canonical order.
  // --------------------------------------------------------------------

  // Shared forward transition (Fig. 10(a)).
  auto sharedShift = [&](const Config &C) {
    NodeId L1 = IA.top(C.S1.Items);
    NodeId L2 = IA.top(C.S2.Items);
    NodeId F1 = Graph.forwardTransition(L1);
    NodeId F2 = Graph.forwardTransition(L2);
    Symbol Z = Graph.transitionSymbol(L1);
    if (F1 == StateItemGraph::InvalidNode ||
        F2 == StateItemGraph::InvalidNode || Z != Graph.transitionSymbol(L2))
      return;
    const bool ShiftsConflict = awaitingConflictShift(C);
    if (ShiftsConflict && Z != ConflictTerm)
      return;
    uint32_t NI1 = IA.push(C.S1.Items, F1);
    uint32_t NI2 = IA.push(C.S2.Items, F2);
    uint8_t NF = C.Flags | (ShiftsConflict ? FlagShifted : 0);
    if (!admit(NI1, NI2, NF))
      return;
    Config N = C;
    N.S1.Items = NI1;
    N.S2.Items = NI2;
    N.Flags = NF;
    if (ShiftsConflict) {
      // Paper presentation (Fig. 11): on the reduce side the dot sits
      // inside the completed reduction's brackets — attach it as the
      // last child of the latest derivation node. The shift side gets it
      // right before the conflict terminal.
      if (!ledgerEmpty(N.S1) && lastDeriv(N.S1)->isNode()) {
        DerivPtr Last = popBackDeriv(N.S1);
        std::vector<DerivPtr> Children = Last->children();
        Children.push_back(Derivation::dot());
        appendDeriv(N.S1, Derivation::node(Last->symbol(),
                                           Last->productionIndex(),
                                           std::move(Children)));
      } else {
        appendDeriv(N.S1, Derivation::dot());
      }
      appendDeriv(N.S2, Derivation::dot());
    }
    appendDeriv(N.S1, leafOf(Z));
    appendDeriv(N.S2, leafOf(Z));
    N.Cost += ShiftCost;
    enqueue(N);
  };

  // Production steps on one side (Fig. 10(b)).
  auto productionSteps = [&](const Config &C, bool First) {
    const SideRef &S = First ? C.S1 : C.S2;
    for (NodeId Step : Graph.productionSteps(IA.top(S.Items))) {
      if (awaitingConflictShift(C) && !usefulWhileAwaiting(Step))
        continue;
      int Cost = ProductionCost + (IA.contains(S.Items, Step) ? DupCost : 0);
      uint32_t NI = IA.push(S.Items, Step);
      if (!admit(First ? NI : C.S1.Items, First ? C.S2.Items : NI, C.Flags))
        continue;
      Config N = C;
      (First ? N.S1 : N.S2).Items = NI;
      N.Cost += Cost;
      enqueue(N);
    }
  };

  // Reduction on one side (Fig. 10(f)). \returns false when a reduction
  // is pending but the side lacks its left context, so reverse
  // preparation is needed.
  auto reduce = [&](const Config &C, bool First) -> bool {
    const SideRef &S = First ? C.S1 : C.S2;
    NodeId Last = IA.top(S.Items);
    const Item &Itm = Graph.itemOf(Last);
    if (!Itm.atEnd(G))
      return true; // nothing pending
    unsigned L = Itm.Dot;
    // Before the conflict terminal is consumed, the very next terminal
    // will be the conflict terminal, so any reduction taken now must have
    // it in its lookahead set.
    if (!(C.Flags & FlagShifted) &&
        !Graph.lookahead(Last).contains(ConflictTerm.id()))
      return true; // reduction inadmissible; not a preparation problem
    if (IA.depth(S.Items) <= L + 1 ||
        Graph.itemOf(IA.fromTop(S.Items, L)) != Item(Itm.Prod, 0))
      return false;
    NodeId Goto = Graph.forwardTransition(IA.fromTop(S.Items, L + 1));
    if (Goto == StateItemGraph::InvalidNode)
      throw SearchError(
          "unifying search: missing goto transition after reduction");
    uint32_t NI = IA.push(IA.popN(S.Items, L + 1), Goto);
    uint8_t NF = C.Flags | (First ? FlagReduce1 : FlagReduce2);
    if (!admit(First ? NI : C.S1.Items, First ? C.S2.Items : NI, NF))
      return true;
    Config N = C;
    SideRef &NS = First ? N.S1 : N.S2;
    NS.Items = NI;
    std::vector<DerivPtr> Children = popChildren(NS, L);
    appendDeriv(NS, Derivation::node(G.production(Itm.Prod).Lhs, Itm.Prod,
                                     std::move(Children)));
    N.Flags = NF;
    N.Cost += ReduceCost;
    enqueue(N);
    return true;
  };

  // Reverse production steps prepending to one side (Fig. 10(d)/(e)).
  auto reverseProductionSteps = [&](const Config &C, bool First,
                                    bool GuardConflict) {
    const SideRef &S = First ? C.S1 : C.S2;
    for (NodeId Src : Graph.reverseProductionSteps(IA.front(S.Items))) {
      if (GuardConflict) {
        // The conflict terminal must still be able to follow the
        // completed production in the prepended context.
        const Item &SrcItm = Graph.itemOf(Src);
        if (!Analysis.suffixCanBeginWith(SrcItm.Prod, SrcItm.Dot + 1,
                                         ConflictTerm,
                                         &Graph.lookahead(Src)))
          continue;
      }
      uint32_t NI = IA.prepend(S.Items, Src);
      if (!admit(First ? NI : C.S1.Items, First ? C.S2.Items : NI, C.Flags))
        continue;
      Config N = C;
      (First ? N.S1 : N.S2).Items = NI;
      N.Cost += RevProductionCost;
      enqueue(N);
    }
  };

  // Reverse transitions prepending to both sides (Fig. 10(c)).
  auto reverseTransitions = [&](const Config &C, bool Stage1Guard) {
    NodeId H1 = IA.front(C.S1.Items);
    NodeId H2 = IA.front(C.S2.Items);
    const Item &I1 = Graph.itemOf(H1);
    const Item &I2 = Graph.itemOf(H2);
    if (I1.Dot == 0 || I2.Dot == 0)
      return;
    Symbol Z = I1.beforeDot(G);
    if (Z != I2.beforeDot(G))
      return;
    for (NodeId M1 : Graph.reverseTransitions(H1)) {
      unsigned FromState = Graph.stateOf(M1);
      bool OffPath = !SlspState.empty() && !SlspState[FromState];
      if (OffPath && !Opts.ExtendedSearch)
        continue;
      if (Stage1Guard &&
          !Graph.lookahead(M1).contains(ConflictTerm.id()))
        continue;
      for (NodeId M2 : Graph.reverseTransitions(H2)) {
        if (Graph.stateOf(M2) != FromState)
          continue;
        uint32_t NI1 = IA.prepend(C.S1.Items, M1);
        uint32_t NI2 = IA.prepend(C.S2.Items, M2);
        if (!admit(NI1, NI2, C.Flags))
          continue;
        Config N = C;
        N.S1.Items = NI1;
        N.S2.Items = NI2;
        prependDeriv(N.S1, leafOf(Z));
        prependDeriv(N.S2, leafOf(Z));
        N.Cost += OffPath ? ExtendedRevTransitionCost : RevTransitionCost;
        enqueue(N);
      }
    }
  };

  // Every successor of one configuration, in canonical order: shared
  // shift, production steps (side 1, then 2), then per side the
  // reduction, or the reverse preparation a pending reduction that lacks
  // left context needs (Fig. 10(c)-(f)). A rule's arena reads depend only
  // on the sequences' contents, which the interning of an earlier rule
  // never changes.
  auto expand = [&](const Config &C) {
    sharedShift(C);
    productionSteps(C, true);
    productionSteps(C, false);
    for (bool First : {true, false}) {
      if (reduce(C, First))
        continue;
      const SideRef &S = First ? C.S1 : C.S2;
      const SideRef &O = First ? C.S2 : C.S1;
      const Item &Pending = Graph.itemOf(IA.top(S.Items));
      bool GuardConflict = !(C.Flags & (First ? FlagReduce1 : FlagReduce2));
      if (IA.depth(S.Items) == Pending.Dot + 1 &&
          Graph.itemOf(IA.front(S.Items)) == Item(Pending.Prod, 0))
        // Fig. 10(d): the production's own items are all present;
        // prepend a context item via a reverse production step here.
        reverseProductionSteps(C, First, GuardConflict);
      else if (Graph.itemOf(IA.front(O.Items)).Dot == 0)
        // Fig. 10(c)/(e): the walk extends past the head, and the other
        // side's head is a dot-0 item that must first be un-produced.
        reverseProductionSteps(C, !First, /*GuardConflict=*/false);
      else
        // Otherwise prepend a shared reverse transition.
        reverseTransitions(C, GuardConflict);
    }
  };

  // Flattens a ledger (front chain, then reversed back chain) into the
  // derivation list of a counterexample; only the goal pays for this.
  auto materialize = [&](const SideRef &S) {
    std::vector<DerivPtr> Out;
    for (uint32_t I = S.Front; I != NilChain; I = DA.parent(I))
      Out.push_back(DA.at(I));
    size_t Mid = Out.size();
    for (uint32_t I = S.Back; I != NilChain; I = DA.parent(I))
      Out.push_back(DA.at(I));
    std::reverse(Out.begin() + Mid, Out.end());
    return Out;
  };

  // Goal test (paper §5.4): both copies have performed their conflict
  // action and reduced to a single derivation of the same nonterminal.
  // Usually the conflict terminal has been consumed by then; for
  // reduce/reduce conflicts the two parses may already unify before any
  // further input, in which case the conflict terminal is merely the
  // lookahead beyond the example and the dot lands at its end.
  auto rootOf = [&](const SideRef &S) -> const DerivPtr & {
    // Reals == 1: exactly one non-dot derivation exists in the ledger.
    for (uint32_t I = S.Front; I != NilChain; I = DA.parent(I))
      if (!DA.at(I)->isDot())
        return DA.at(I);
    for (uint32_t I = S.Back; I != NilChain; I = DA.parent(I))
      if (!DA.at(I)->isDot())
        return DA.at(I);
    throw SearchError(
        "unifying search: goal configuration has no derivation");
  };
  auto goalDetect = [&](const Config &C) -> bool {
    if ((C.Flags & (FlagReduce1 | FlagReduce2)) !=
            (FlagReduce1 | FlagReduce2) ||
        C.S1.Reals != 1 || C.S2.Reals != 1)
      return false;
    const DerivPtr &D1 = rootOf(C.S1);
    const DerivPtr &D2 = rootOf(C.S2);
    return D1->symbol() == D2->symbol() &&
           G.isNonterminal(D1->symbol()) && !Derivation::equal(D1, D2);
  };

  // One deterministic guard step per popped configuration; the guard
  // folds in the step budget, the byte budget (charged on admission and
  // arena growth), the periodic wall-clock poll, and cancellation.
  auto guardStop = [&]() -> bool {
    switch (Guard.step()) {
    case GuardStop::None:
      return false;
    case GuardStop::StepLimit:
      Result.Status = UnifyingStatus::LimitHit;
      break;
    case GuardStop::MemoryLimit:
      Result.Status = UnifyingStatus::MemoryLimit;
      break;
    case GuardStop::Deadline:
      Result.Status = UnifyingStatus::TimedOut;
      break;
    case GuardStop::Cancelled:
      Result.Status = UnifyingStatus::Cancelled;
      break;
    }
    if (Opts.Metrics)
      StoppedAt = std::chrono::steady_clock::now();
    return true;
  };

  // Processes one popped configuration: counting, fault hooks, integrity
  // check, goal test, saturation test, then expand().
  // \returns true when the goal was reached (Result is filled in).
  auto processConfig = [&](uint32_t PoolId) -> bool {
    Config C = Pool[PoolId]; // 40-byte copy; arenas hold the state
    ++Result.ConfigurationsExplored;

    if (LALRCEX_FAULT_FIRES(BadAllocAtStep, Result.ConfigurationsExplored))
      throw std::bad_alloc();
    if (LALRCEX_FAULT_FIRES(CorruptSuccessorAtStep,
                            Result.ConfigurationsExplored))
      C.S1.Items = NilChain; // simulate a corrupted configuration

    // Integrity check: a configuration always carries at least the
    // conflict item on each side; losing the sequence would previously
    // have been undefined behavior at the IA accesses below.
    if (C.S1.Items == NilChain || C.S2.Items == NilChain)
      throw SearchError(
          "unifying search: configuration lost its item sequence");

    if (goalDetect(C)) {
      Counterexample Ex;
      Ex.Unifying = true;
      Ex.Root = rootOf(C.S1)->symbol();
      Ex.Derivs1 = materialize(C.S1);
      Ex.Derivs2 = materialize(C.S2);
      if (!(C.Flags & FlagShifted)) {
        // The conflict terminal was never consumed: the conflict point
        // is at the end of the example.
        Ex.Derivs1.push_back(Derivation::dot());
        Ex.Derivs2.push_back(Derivation::dot());
      }
      Result.Status = UnifyingStatus::Found;
      Result.Example = std::move(Ex);
      return true;
    }

    // Saturation (DESIGN.md 5c). Every later successor costs at least
    // C.Cost + MinDelta and queues behind the configurations already
    // queued at costs up to that. Once those cover the Left pops the step
    // budget still allows, the rest of the run pops a prefix of them
    // whatever is pushed; once the queue also holds one configuration
    // more, it cannot run empty before the budget stops the search. So
    // expanding anything more cannot change a pop, the final status or
    // the example. Without the second test, a queue holding exactly Left
    // would end Exhausted where an admitted successor makes it LimitHit.
    if (!Saturated) {
      const size_t Left = Guard.limits().MaxSteps - Guard.steps();
      Saturated = Queue.size() > Left &&
                  Queue.queuedThrough(C.Cost + MinDelta) >= Left;
    }
    if (Saturated) {
      ++SaturatedPops;
      return false;
    }

    expand(C);
    return false;
  };

  // The cost-ordered search loop (paper §5.4): guard step, pop the
  // cheapest configuration, goal test, expand.
  while (!Queue.empty()) {
    if (guardStop())
      return;
    if (processConfig(Queue.pop()))
      return;
  }
  Result.Status = UnifyingStatus::Exhausted;
}
