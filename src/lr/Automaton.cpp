//===- lr/Automaton.cpp ---------------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "lr/Automaton.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>

using namespace lalrcex;

namespace {

/// Hash of the sorted kernel [\p Begin, \p End), mixed for IdIndex.
uint64_t kernelHash(const Item *Begin, const Item *End) {
  uint64_t H = 0x9e3779b97f4a7c15ULL ^ uint64_t(End - Begin);
  for (const Item *I = Begin; I != End; ++I) {
    H = (H ^ I->key()) * 0xff51afd7ed558ccdULL;
    H ^= H >> 29;
  }
  return mixKey(H);
}

/// True when \p St's kernel is [\p Begin, \p End).
bool hasKernel(const Automaton::State &St, const Item *Begin,
               const Item *End) {
  return St.NumKernel == size_t(End - Begin) &&
         std::equal(Begin, End, St.Items.begin());
}

/// Edges of a relation over nonterminal transitions, in compressed rows.
struct Relation {
  std::vector<unsigned> Begin; ///< row x is To[Begin[x] .. Begin[x + 1])
  std::vector<unsigned> To;
};

/// DeRemer & Pennello's DIGRAPH: on return F(x) = F(x) ∪ ⋃{F(y) | x R y}
/// transitively, for every node of \p R. \p F holds \p W words per node.
/// Tarjan's traversal with an explicit stack: every node of a strongly
/// connected component receives the root's set.
void digraph(const Relation &R, std::vector<uint64_t> &F, unsigned W) {
  const unsigned N = unsigned(R.Begin.size()) - 1;
  const unsigned Finished = ~0u;
  std::vector<unsigned> Depth(N, 0); // 0 = unvisited
  std::vector<unsigned> Stack;
  struct Frame {
    unsigned X, NextEdge, OwnDepth;
  };
  std::vector<Frame> Calls;
  auto orInto = [&F, W](unsigned To, unsigned From) {
    uint64_t *Dst = &F[size_t(To) * W];
    const uint64_t *Src = &F[size_t(From) * W];
    for (unsigned I = 0; I != W; ++I)
      Dst[I] |= Src[I];
  };
  auto enter = [&](unsigned X) {
    Stack.push_back(X);
    Depth[X] = unsigned(Stack.size());
    Calls.push_back({X, R.Begin[X], Depth[X]});
  };
  for (unsigned Root = 0; Root != N; ++Root) {
    if (Depth[Root] != 0)
      continue;
    enter(Root);
    while (!Calls.empty()) {
      Frame &Top = Calls.back();
      const unsigned X = Top.X;
      if (Top.NextEdge != R.Begin[X + 1]) {
        unsigned Y = R.To[Top.NextEdge++];
        if (Depth[Y] == 0) {
          enter(Y);
          continue;
        }
        Depth[X] = std::min(Depth[X], Depth[Y]);
        orInto(X, Y);
        continue;
      }
      const unsigned OwnDepth = Top.OwnDepth;
      Calls.pop_back();
      if (Depth[X] == OwnDepth) {
        for (;;) {
          unsigned Member = Stack.back();
          Stack.pop_back();
          Depth[Member] = Finished;
          if (Member == X)
            break;
          std::copy_n(&F[size_t(X) * W], W, &F[size_t(Member) * W]);
        }
      }
      if (!Calls.empty()) {
        unsigned Parent = Calls.back().X;
        Depth[Parent] = std::min(Depth[Parent], Depth[X]);
        orInto(Parent, X);
      }
    }
  }
}

} // namespace

int Automaton::State::indexOfItem(const Item &I) const {
  for (unsigned Idx = 0, E = unsigned(Items.size()); Idx != E; ++Idx)
    if (Items[Idx] == I)
      return int(Idx);
  return -1;
}

Automaton::Automaton(const Grammar &G, const GrammarAnalysis &Analysis,
                     const AutomatonOptions &Opts)
    : G(G), Analysis(Analysis), Kind(Opts.Kind) {
  assert(&Analysis.grammar() == &G && "analysis built for another grammar");
  ScopedTimer Timer(Opts.Metrics, metric::TimeAutomatonNs);
  TraceSpan Span(Opts.Trace, "automaton");
  LookaheadWork Work;
  if (Kind == AutomatonKind::Canonical) {
    buildCanonical();
  } else {
    buildLr0();
    Work = computeLookaheads(Opts.ReferenceLookaheads);
  }
  if (Opts.Metrics) {
    Opts.Metrics->add(metric::AutomatonBuilds);
    Opts.Metrics->add(metric::AutomatonStates, States.size());
    Opts.Metrics->add(metric::AutomatonClosureItems, numItems());
    Opts.Metrics->add(metric::AutomatonNtTransitions, Work.NtTransitions);
    Opts.Metrics->add(metric::AutomatonRelationEdges, Work.RelationEdges);
  }
}

void Automaton::numberNewState() {
  ItemBase.push_back(ItemBase.back() + unsigned(States.back().Items.size()));
  Successors.resize(ItemBase.back(), NoSuccessor);
}

void Automaton::buildLr0() {
  // All productions of a nonterminal enter a closure together, so one
  // generation stamp per nonterminal records what the closure holds; the
  // augmented start symbol is on no right-hand side, so its kernel item
  // never repeats.
  std::vector<uint32_t> Expanded(G.numSymbols(), 0);
  uint32_t Gen = 0;
  std::vector<Item> Closure;
  // Kernels are interned by hash; a stored state's key is its kernel
  // prefix, so the index holds nothing but state numbers.
  std::vector<uint64_t> KernelHashes;
  std::vector<Item> Kernel{Item(G.augmentedProduction(), 0)};
  auto intern = [&]() -> unsigned {
    const Item *KB = Kernel.data(), *KE = KB + Kernel.size();
    const uint64_t Hash = kernelHash(KB, KE);
    uint32_t &Slot = KernelTable.probe(
        Hash,
        [&](uint32_t Id) {
          return KernelHashes[Id] == Hash && hasKernel(States[Id], KB, KE);
        },
        [&](uint32_t Id) { return KernelHashes[Id]; });
    if (Slot != IdIndex::Empty)
      return Slot;
    Closure.assign(KB, KE);
    ++Gen;
    for (size_t Idx = 0; Idx != Closure.size(); ++Idx) {
      Symbol Next = Closure[Idx].afterDot(G);
      if (!Next.valid() || G.isTerminal(Next) || Expanded[Next.id()] == Gen)
        continue;
      Expanded[Next.id()] = Gen;
      for (unsigned P : G.productionsOf(Next))
        Closure.emplace_back(P, 0);
    }
    States.emplace_back();
    States.back().Items = Closure;
    States.back().NumKernel = unsigned(Kernel.size());
    numberNewState();
    KernelHashes.push_back(Hash);
    KernelTable.publish(Slot, unsigned(States.size() - 1));
    return unsigned(States.size() - 1);
  };
  intern();

  // Per symbol, the advanced items of the state being expanded, each with
  // the index of the item it advances.
  std::vector<std::vector<std::pair<Item, unsigned>>> Bucket(G.numSymbols());
  std::vector<int32_t> Touched;
  for (unsigned S = 0; S != States.size(); ++S) {
    const std::vector<Item> &Items = States[S].Items;
    for (unsigned I = 0, E = unsigned(Items.size()); I != E; ++I) {
      Symbol Next = Items[I].afterDot(G);
      if (!Next.valid())
        continue;
      auto &Moves = Bucket[Next.id()];
      if (Moves.empty())
        Touched.push_back(Next.id());
      Moves.emplace_back(Items[I].advanced(), I);
    }
    std::sort(Touched.begin(), Touched.end());
    std::vector<std::pair<Symbol, unsigned>> Transitions;
    Transitions.reserve(Touched.size());
    const unsigned Base = ItemBase[S];
    for (int32_t Sym : Touched) {
      auto &Moves = Bucket[Sym];
      // The items of a state are distinct, so are their advanced items.
      std::sort(Moves.begin(), Moves.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      Kernel.clear();
      for (const auto &Move : Moves)
        Kernel.push_back(Move.first);
      unsigned Target = intern();
      // The kernel is sorted, so the k-th move lands on item k of Target.
      for (unsigned K = 0, KE = unsigned(Moves.size()); K != KE; ++K)
        Successors[Base + Moves[K].second] = ItemBase[Target] + K;
      Moves.clear();
      Transitions.emplace_back(Symbol(Sym), Target);
    }
    States[S].Transitions = std::move(Transitions);
    Touched.clear();
  }
}

int Automaton::stateWithKernel(const Item *Begin, const Item *End) const {
  const uint64_t Hash = kernelHash(Begin, End);
  uint32_t Id = KernelTable.find(Hash, [&](uint32_t Id) {
    return hasKernel(States[Id], Begin, End);
  });
  return Id == IdIndex::Empty ? -1 : int(Id);
}

void Automaton::buildCanonical() {
  // Canonical LR(1): a state is a kernel of (item, lookahead set) pairs;
  // states with equal kernels but different lookaheads stay distinct.
  using Kernel = std::vector<std::pair<Item, IndexSet>>;

  struct KernelLess {
    bool operator()(const Kernel &A, const Kernel &B) const {
      if (A.size() != B.size())
        return A.size() < B.size();
      for (size_t I = 0; I != A.size(); ++I) {
        if (A[I].first != B[I].first)
          return A[I].first < B[I].first;
        // Any total order will do (the map only finds kernels; states are
        // numbered in discovery order): compare the lookahead sets' words,
        // which share one universe and so one length.
        const uint64_t *WA = A[I].second.words(), *WB = B[I].second.words();
        size_t Words = (A[I].second.universeSize() + 63) / 64;
        auto Order = std::lexicographical_compare_three_way(
            WA, WA + Words, WB, WB + Words);
        if (Order != 0)
          return Order < 0;
      }
      return false;
    }
  };

  std::map<Kernel, unsigned, KernelLess> KernelToState;
  std::deque<unsigned> Work;

  // LR(1) closure of a kernel: item -> merged lookahead set, iterated to
  // an in-set fixpoint; kernel items first, closure items in discovery
  // order.
  auto close = [this](const Kernel &K, State &Out) {
    Out.Items.clear();
    Out.Lookaheads.clear();
    Out.NumKernel = unsigned(K.size());
    std::map<uint64_t, unsigned> Index; // item key -> position
    for (const auto &[Itm, L] : K) {
      Index[Itm.key()] = unsigned(Out.Items.size());
      Out.Items.push_back(Itm);
      Out.Lookaheads.push_back(L);
    }
    std::deque<unsigned> Pending;
    for (unsigned I = 0; I != Out.Items.size(); ++I)
      Pending.push_back(I);
    std::vector<bool> InPending(Out.Items.size(), true);
    while (!Pending.empty()) {
      unsigned I = Pending.front();
      Pending.pop_front();
      InPending[I] = false;
      Symbol Next = Out.Items[I].afterDot(G);
      if (!Next.valid() || G.isTerminal(Next))
        continue;
      const Production &P = G.production(Out.Items[I].Prod);
      IndexSet Follow = Analysis.firstOfSequence(P.Rhs, Out.Items[I].Dot + 1,
                                                 &Out.Lookaheads[I]);
      for (unsigned Q : G.productionsOf(Next)) {
        Item Step(Q, 0);
        auto [It, Inserted] =
            Index.emplace(Step.key(), unsigned(Out.Items.size()));
        if (Inserted) {
          Out.Items.push_back(Step);
          Out.Lookaheads.push_back(Follow);
          Pending.push_back(It->second);
          InPending.push_back(true);
        } else if (Out.Lookaheads[It->second].unionWith(Follow) &&
                   !InPending[It->second]) {
          Pending.push_back(It->second);
          InPending[It->second] = true;
        }
      }
    }
  };

  // Interns the sorted kernel \p K.
  auto internState = [&](Kernel K) -> unsigned {
    auto It = KernelToState.find(K);
    if (It != KernelToState.end())
      return It->second;
    unsigned Index = unsigned(States.size());
    KernelToState.emplace(K, Index);
    States.emplace_back();
    close(K, States.back());
    numberNewState();
    Work.push_back(Index);
    return Index;
  };

  {
    Kernel Start;
    Start.emplace_back(Item(G.augmentedProduction(), 0),
                       IndexSet::singleton(G.numTerminals(),
                                           unsigned(G.eof().id())));
    internState(std::move(Start));
  }

  while (!Work.empty()) {
    unsigned Index = Work.front();
    Work.pop_front();
    // Group item indices by the symbol after the dot. The items of a
    // state are distinct, so each advanced item enters its kernel once.
    std::map<Symbol, std::vector<unsigned>> Moves;
    for (unsigned I = 0; I != States[Index].Items.size(); ++I) {
      Symbol Next = States[Index].Items[I].afterDot(G);
      if (Next.valid())
        Moves[Next].push_back(I);
    }
    for (auto &[Sym, Sources] : Moves) {
      const State &St = States[Index];
      std::sort(Sources.begin(), Sources.end(), [&St](unsigned A, unsigned B) {
        return St.Items[A] < St.Items[B];
      });
      Kernel K;
      K.reserve(Sources.size());
      for (unsigned I : Sources)
        K.emplace_back(St.Items[I].advanced(), St.Lookaheads[I]);
      unsigned Target = internState(std::move(K));
      // The kernel is sorted, so the k-th source lands on item k of Target.
      for (unsigned J = 0, JE = unsigned(Sources.size()); J != JE; ++J)
        Successors[ItemBase[Index] + Sources[J]] = ItemBase[Target] + J;
      States[Index].Transitions.emplace_back(Sym, Target);
    }
  }
}

int Automaton::transition(unsigned StateIndex, Symbol S) const {
  const auto &Ts = States[StateIndex].Transitions;
  auto It = std::lower_bound(
      Ts.begin(), Ts.end(), S,
      [](const std::pair<Symbol, unsigned> &T, Symbol S) {
        return T.first < S;
      });
  if (It != Ts.end() && It->first == S)
    return int(It->second);
  return -1;
}

void Automaton::computeKernelLookaheads() {
  const unsigned NumTerminals = G.numTerminals();
  // The probe universe has one extra pseudo-terminal "#" used to discover
  // propagation.
  const unsigned Hash = NumTerminals;
  const unsigned ProbeUniverse = NumTerminals + 1;

  // Kernel lookaheads, indexed [state][kernel item index].
  std::vector<std::vector<IndexSet>> KernelLA(States.size());
  for (size_t S = 0; S != States.size(); ++S)
    KernelLA[S].assign(States[S].NumKernel, IndexSet(NumTerminals));

  struct PropLink {
    unsigned FromState, FromItem, ToState, ToItem;
  };
  std::vector<PropLink> Links;

  // FIRST over the probe universe: FIRST(beta) plus, when beta is
  // nullable, the probing lookahead set.
  auto probeFollow = [&](const std::vector<Symbol> &Rhs, size_t From,
                         const IndexSet &L) {
    IndexSet Out(ProbeUniverse);
    bool AllNullable = true;
    for (size_t I = From, E = Rhs.size(); I != E; ++I) {
      Analysis.first(Rhs[I]).forEach([&Out](unsigned T) { Out.insert(T); });
      if (!Analysis.isNullable(Rhs[I])) {
        AllNullable = false;
        break;
      }
    }
    if (AllNullable)
      Out.unionWith(L);
    return Out;
  };

  // For each kernel item, run an LR(1) closure probe with lookahead {#}.
  for (unsigned SI = 0, SE = unsigned(States.size()); SI != SE; ++SI) {
    const State &St = States[SI];
    for (unsigned KI = 0; KI != St.NumKernel; ++KI) {
      // Probe closure: item -> probe lookahead set.
      // Closure items all have dot 0, so key by production.
      IndexSet KernelProbe(ProbeUniverse);
      KernelProbe.insert(Hash);
      std::map<uint32_t, IndexSet> ClosureLA; // production -> probe set

      // Worklist of (item, lookahead snapshot to expand).
      struct WorkEntry {
        Item I;
        IndexSet L;
      };
      std::vector<WorkEntry> Work;
      Work.push_back({St.Items[KI], KernelProbe});
      while (!Work.empty()) {
        WorkEntry E = std::move(Work.back());
        Work.pop_back();
        Symbol Next = E.I.afterDot(G);
        if (!Next.valid() || G.isTerminal(Next))
          continue;
        IndexSet Follow =
            probeFollow(G.production(E.I.Prod).Rhs, E.I.Dot + 1, E.L);
        for (unsigned P : G.productionsOf(Next)) {
          auto [It, Inserted] =
              ClosureLA.emplace(P, IndexSet(ProbeUniverse));
          bool Changed = It->second.unionWith(Follow);
          if (Inserted || Changed)
            Work.push_back({Item(P, 0), It->second});
        }
      }

      // Harvest spontaneous lookaheads and propagation links from every
      // probed item that has a transition.
      auto harvest = [&](const Item &I, const IndexSet &L) {
        Symbol Next = I.afterDot(G);
        if (!Next.valid())
          return;
        int Target = transition(SI, Next);
        assert(Target >= 0 && "missing transition for item symbol");
        const State &TargetState = States[unsigned(Target)];
        int TargetItem = TargetState.indexOfItem(I.advanced());
        assert(TargetItem >= 0 && unsigned(TargetItem) < TargetState.NumKernel &&
               "advanced item must be in the target kernel");
        L.forEach([&](unsigned T) {
          if (T == Hash) {
            Links.push_back({SI, KI, unsigned(Target), unsigned(TargetItem)});
          } else {
            KernelLA[unsigned(Target)][unsigned(TargetItem)].insert(T);
          }
        });
      };

      harvest(St.Items[KI], KernelProbe);
      for (const auto &[Prod, L] : ClosureLA)
        harvest(Item(Prod, 0), L);
    }
  }

  // The augmented item starts with end-of-input lookahead.
  {
    int AugIdx = States[0].indexOfItem(Item(G.augmentedProduction(), 0));
    assert(AugIdx >= 0 && "start state lacks the augmented item");
    KernelLA[0][unsigned(AugIdx)].insert(G.eof().id());
  }

  // Propagate to fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const PropLink &L : Links)
      Changed |= KernelLA[L.ToState][L.ToItem].unionWith(
          KernelLA[L.FromState][L.FromItem]);
  }

  for (size_t S = 0; S != States.size(); ++S) {
    States[S].Lookaheads.assign(States[S].Items.size(),
                                IndexSet(NumTerminals));
    for (unsigned KI = 0; KI != States[S].NumKernel; ++KI)
      States[S].Lookaheads[KI] = std::move(KernelLA[S][KI]);
  }
}

void Automaton::computeClosureLookaheads() {
  for (State &St : States) {
    // Map production -> index of its dot-0 closure item in this state.
    std::map<uint32_t, unsigned> ClosureIndex;
    for (unsigned I = 0, E = unsigned(St.Items.size()); I != E; ++I)
      if (St.Items[I].Dot == 0)
        ClosureIndex[St.Items[I].Prod] = I;

    // In-state fixpoint of the LR(1) closure rule.
    std::deque<unsigned> Work;
    for (unsigned I = 0, E = unsigned(St.Items.size()); I != E; ++I)
      Work.push_back(I);
    std::vector<bool> InWork(St.Items.size(), true);
    while (!Work.empty()) {
      unsigned I = Work.front();
      Work.pop_front();
      InWork[I] = false;
      Symbol Next = St.Items[I].afterDot(G);
      if (!Next.valid() || G.isTerminal(Next))
        continue;
      const Production &P = G.production(St.Items[I].Prod);
      IndexSet Follow = Analysis.firstOfSequence(P.Rhs, St.Items[I].Dot + 1,
                                                 &St.Lookaheads[I]);
      for (unsigned Q : G.productionsOf(Next)) {
        auto It = ClosureIndex.find(Q);
        assert(It != ClosureIndex.end() && "closure item missing");
        unsigned CI = It->second;
        if (St.Lookaheads[CI].unionWith(Follow) && !InWork[CI]) {
          Work.push_back(CI);
          InWork[CI] = true;
        }
      }
    }
  }
}

Automaton::LookaheadWork Automaton::computeLookaheads(bool Reference) {
  if (Reference) {
    computeKernelLookaheads();
    computeClosureLookaheads();
    return {};
  }
  const unsigned NumStates = unsigned(States.size());
  const unsigned NumTerminals = G.numTerminals();
  const unsigned W = (NumTerminals + 63) / 64;

  // Number the nonterminal transitions. Transitions are sorted by symbol
  // and terminals have the low ids, so state P's nonterminal transitions
  // are the tail of its list from NtFirst[P]; transition (P, A) gets
  // number Base[P] + its rank in that tail. One extra pseudo-transition,
  // Aug, stands for (0, S'): it reads {$} and (0, S) includes it.
  std::vector<unsigned> Base(NumStates + 1, 0), NtFirst(NumStates);
  for (unsigned P = 0; P != NumStates; ++P) {
    const auto &Ts = States[P].Transitions;
    NtFirst[P] = unsigned(
        std::lower_bound(Ts.begin(), Ts.end(), Symbol(int32_t(NumTerminals)),
                         [](const std::pair<Symbol, unsigned> &T, Symbol S) {
                           return T.first < S;
                         }) -
        Ts.begin());
    Base[P + 1] = Base[P] + unsigned(Ts.size()) - NtFirst[P];
  }
  const unsigned NumNt = Base[NumStates];
  const unsigned Aug = NumNt;

  // Per item, the nonterminal transition it names: NtOf for an item with a
  // nonterminal after its dot, the transition it moves along; From for a
  // dot-0 item A -> • ω of state p, (p, A), whose Follow set it takes (Aug
  // for the augmented item). A per-state stamp of each nonterminal's
  // transition number answers both without a search.
  const unsigned NumItems = numItems();
  const Symbol AugStart = G.augmentedStart();
  std::vector<unsigned> NtOf(NumItems), From(NumItems);
  {
    std::vector<unsigned> Rank(G.numSymbols());
    for (unsigned P = 0; P != NumStates; ++P) {
      const auto &Ts = States[P].Transitions;
      for (unsigned K = NtFirst[P]; K != Ts.size(); ++K)
        Rank[Ts[K].first.id()] = Base[P] + K - NtFirst[P];
      const std::vector<Item> &Items = States[P].Items;
      for (unsigned I = 0, E = unsigned(Items.size()); I != E; ++I) {
        const unsigned N = ItemBase[P] + I;
        Symbol Next = Items[I].afterDot(G);
        if (Next.valid() && G.isNonterminal(Next))
          NtOf[N] = Rank[Next.id()];
        if (Items[I].Dot == 0) {
          Symbol Lhs = G.production(Items[I].Prod).Lhs;
          From[N] = Lhs == AugStart ? Aug : Rank[Lhs.id()];
        }
      }
    }
  }

  // F holds W words per transition: DR, then Read, then Follow.
  // Read = DIGRAPH(reads, DR): DR(p, A) holds the terminals shifted out of
  // goto(p, A); (p, A) reads (r, C) when r = goto(p, A) and C is nullable.
  std::vector<uint64_t> F(size_t(NumNt + 1) * W, 0);
  Relation Reads;
  Reads.Begin.reserve(NumNt + 2);
  for (unsigned P = 0; P != NumStates; ++P) {
    const auto &Ts = States[P].Transitions;
    for (unsigned K = NtFirst[P]; K != Ts.size(); ++K) {
      unsigned X = Base[P] + K - NtFirst[P];
      unsigned R = Ts[K].second;
      const auto &Rs = States[R].Transitions;
      uint64_t *Bits = &F[size_t(X) * W];
      for (unsigned T = 0; T != NtFirst[R]; ++T) {
        unsigned Id = unsigned(Rs[T].first.id());
        Bits[Id / 64] |= uint64_t(1) << (Id % 64);
      }
      Reads.Begin.push_back(unsigned(Reads.To.size()));
      for (unsigned T = NtFirst[R]; T != Rs.size(); ++T)
        if (Analysis.isNullable(Rs[T].first))
          Reads.To.push_back(Base[R] + T - NtFirst[R]);
    }
  }
  Reads.Begin.push_back(unsigned(Reads.To.size())); // Aug: no edges
  Reads.Begin.push_back(unsigned(Reads.To.size()));
  F[size_t(Aug) * W + unsigned(G.eof().id()) / 64] |=
      uint64_t(1) << (unsigned(G.eof().id()) % 64);
  digraph(Reads, F, W);

  // Every dot-0 item A -> • ω of every state p is one production of one
  // (p, A) (or Aug's augmented production). Walking it along the
  // successors visits A -> β • γ in q for every split ω = β γ with
  // p --β--> q: (q, X) includes (p, A) when γ = X γ' with γ' nullable, and
  // the kernel item reached after each step looks back to (p, A).
  std::vector<std::pair<unsigned, unsigned>> Includes; // (from, to)
  for (unsigned P = 0; P != NumStates; ++P) {
    const std::vector<Item> &Items = States[P].Items;
    for (unsigned I = 0, E = unsigned(Items.size()); I != E; ++I) {
      if (Items[I].Dot != 0)
        continue;
      const unsigned Prod = Items[I].Prod;
      const std::vector<Symbol> &Rhs = G.production(Prod).Rhs;
      unsigned N = ItemBase[P] + I;
      const unsigned X = From[N];
      for (unsigned J = 0, JE = unsigned(Rhs.size()); J != JE; ++J) {
        if (G.isNonterminal(Rhs[J]) && Analysis.suffixNullable(Prod, J + 1))
          Includes.emplace_back(NtOf[N], X);
        N = Successors[N];
      }
    }
  }

  // Follow = DIGRAPH(includes, Read).
  Relation Inc;
  Inc.Begin.assign(NumNt + 2, 0);
  for (const auto &[Src, Dst] : Includes)
    ++Inc.Begin[Src + 1];
  for (unsigned X = 0; X != NumNt + 1; ++X)
    Inc.Begin[X + 1] += Inc.Begin[X];
  Inc.To.resize(Includes.size());
  {
    std::vector<unsigned> Fill(Inc.Begin.begin(), Inc.Begin.end() - 1);
    for (const auto &[Src, Dst] : Includes)
      Inc.To[Fill[Src]++] = Dst;
  }
  digraph(Inc, F, W);

  // Kernel items with the dot past position 0 take the union of their
  // lookback transitions' Follow sets, found by walking the dot-0 items
  // again (KernelLa is indexed by item number); dot-0 items take their own
  // transition's Follow set.
  std::vector<uint64_t> KernelLa(size_t(NumItems) * W, 0);
  for (unsigned P = 0; P != NumStates; ++P) {
    const std::vector<Item> &Items = States[P].Items;
    for (unsigned I = 0, E = unsigned(Items.size()); I != E; ++I) {
      if (Items[I].Dot != 0)
        continue;
      const uint64_t *Src = &F[size_t(From[ItemBase[P] + I]) * W];
      for (unsigned N = Successors[ItemBase[P] + I]; N != NoSuccessor;
           N = Successors[N]) {
        uint64_t *Dst = &KernelLa[size_t(N) * W];
        for (unsigned K = 0; K != W; ++K)
          Dst[K] |= Src[K];
      }
    }
  }
  for (unsigned P = 0; P != NumStates; ++P) {
    State &St = States[P];
    St.Lookaheads.clear();
    St.Lookaheads.reserve(St.Items.size());
    for (unsigned I = 0, E = unsigned(St.Items.size()); I != E; ++I) {
      const unsigned N = ItemBase[P] + I;
      assert((St.Items[I].Dot == 0 || I < St.NumKernel) &&
             "closure items have the dot at 0");
      const uint64_t *Src = St.Items[I].Dot != 0 ? &KernelLa[size_t(N) * W]
                                                 : &F[size_t(From[N]) * W];
      St.Lookaheads.emplace_back(NumTerminals, Src);
    }
  }
  return {NumNt, unsigned(Reads.To.size() + Inc.To.size())};
}

const IndexSet &Automaton::lookahead(unsigned StateIndex,
                                     const Item &I) const {
  const State &St = States[StateIndex];
  int Idx = St.indexOfItem(I);
  assert(Idx >= 0 && "item not present in state");
  return St.Lookaheads[unsigned(Idx)];
}
