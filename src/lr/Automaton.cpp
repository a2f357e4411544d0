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
#include <unordered_map>

using namespace lalrcex;

namespace {

/// Kernel interning table: sorted kernel -> state number.
using KernelIndex = std::unordered_map<std::vector<Item>, unsigned, KernelHash>;

/// The LR(0) worklist. States are numbered in discovery order and
/// expanded in that order (a FIFO worklist); a state's moves are grouped
/// per symbol and interned in symbol order, each target kernel sorted; a
/// closure lists the kernel first, then closure items in discovery order.
class Lr0Builder {
public:
  explicit Lr0Builder(const Grammar &G)
      : G(G), Expanded(G.numSymbols(), 0), Bucket(G.numSymbols()) {}

  /// Fills \p S with the LR(0) closure of the sorted \p Kernel. All
  /// productions of a nonterminal enter together, so one generation stamp
  /// per nonterminal records what the closure holds; the augmented start
  /// symbol is on no right-hand side, so its kernel item never repeats.
  void close(const std::vector<Item> &Kernel, Automaton::State &S) {
    S.Items = Kernel;
    S.NumKernel = unsigned(Kernel.size());
    ++Gen;
    for (size_t Idx = 0; Idx != S.Items.size(); ++Idx) {
      Symbol Next = S.Items[Idx].afterDot(G);
      if (!Next.valid() || G.isTerminal(Next) || Expanded[Next.id()] == Gen)
        continue;
      Expanded[Next.id()] = Gen;
      for (unsigned P : G.productionsOf(Next))
        S.Items.emplace_back(P, 0);
    }
  }

  /// Builds the LR(0) collection into the empty \p States.
  void run(std::vector<Automaton::State> &States) {
    KernelIndex Index;
    std::vector<Item> Kernel{Item(G.augmentedProduction(), 0)};
    auto intern = [&]() -> unsigned {
      auto [It, Inserted] = Index.try_emplace(Kernel, unsigned(States.size()));
      if (Inserted) {
        States.emplace_back();
        close(Kernel, States.back());
      }
      return It->second;
    };
    intern();
    std::vector<int32_t> Touched;
    for (unsigned S = 0; S != States.size(); ++S) {
      for (const Item &I : States[S].Items) {
        Symbol Next = I.afterDot(G);
        if (!Next.valid())
          continue;
        std::vector<Item> &Moves = Bucket[Next.id()];
        if (Moves.empty())
          Touched.push_back(Next.id());
        Moves.push_back(I.advanced());
      }
      std::sort(Touched.begin(), Touched.end());
      for (int32_t Sym : Touched) {
        Kernel.swap(Bucket[Sym]);
        Bucket[Sym].clear();
        std::sort(Kernel.begin(), Kernel.end());
        unsigned Target = intern();
        States[S].Transitions.emplace_back(Symbol(Sym), Target);
      }
      Touched.clear();
    }
  }

private:
  const Grammar &G;
  uint32_t Gen = 0;                      ///< closures computed so far
  std::vector<uint32_t> Expanded;        ///< symbol -> last closure using it
  std::vector<std::vector<Item>> Bucket; ///< symbol -> advanced items
};

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
    Lr0Builder(G).run(States);
    Work = computeLookaheads(Opts.ReferenceLookaheads);
  }
  if (Opts.Metrics) {
    Opts.Metrics->add(metric::AutomatonBuilds);
    Opts.Metrics->add(metric::AutomatonStates, States.size());
    size_t Items = 0;
    for (const State &St : States)
      Items += St.Items.size();
    Opts.Metrics->add(metric::AutomatonClosureItems, Items);
    Opts.Metrics->add(metric::AutomatonNtTransitions, Work.NtTransitions);
    Opts.Metrics->add(metric::AutomatonRelationEdges, Work.RelationEdges);
  }
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

  auto internState = [&](Kernel K) -> unsigned {
    std::sort(K.begin(), K.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    auto It = KernelToState.find(K);
    if (It != KernelToState.end())
      return It->second;
    unsigned Index = unsigned(States.size());
    KernelToState.emplace(K, Index);
    States.emplace_back();
    close(K, States.back());
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
    // Group (advanced item, lookahead) pairs by the symbol after the dot.
    std::map<Symbol, Kernel> Moves;
    for (unsigned I = 0; I != States[Index].Items.size(); ++I) {
      const Item &Itm = States[Index].Items[I];
      Symbol Next = Itm.afterDot(G);
      if (!Next.valid())
        continue;
      Kernel &K = Moves[Next];
      // Merge lookaheads if the advanced item is already in the kernel.
      bool Merged = false;
      for (auto &[KItm, L] : K) {
        if (KItm == Itm.advanced()) {
          L.unionWith(States[Index].Lookaheads[I]);
          Merged = true;
          break;
        }
      }
      if (!Merged)
        K.emplace_back(Itm.advanced(), States[Index].Lookaheads[I]);
    }
    for (auto &[Sym, K] : Moves) {
      unsigned Target = internState(std::move(K));
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
  auto ntIndex = [&](unsigned P, Symbol A) {
    const auto &Ts = States[P].Transitions;
    auto It = std::lower_bound(
        Ts.begin() + NtFirst[P], Ts.end(), A,
        [](const std::pair<Symbol, unsigned> &T, Symbol S) {
          return T.first < S;
        });
    assert(It != Ts.end() && It->first == A && "missing goto");
    return Base[P] + unsigned(It - (Ts.begin() + NtFirst[P]));
  };

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

  // One forward walk of every production A -> ω from every (p, A), and of
  // the augmented production from Aug, finds both the includes edges —
  // (q, X) includes (p, A) when ω = β X γ, p --β--> q and γ is nullable —
  // and the lookback pairs: the kernel item A -> β • γ of q inherits
  // Follow(p, A).
  std::vector<unsigned> KernelBase(NumStates + 1, 0);
  for (unsigned P = 0; P != NumStates; ++P)
    KernelBase[P + 1] = KernelBase[P] + States[P].NumKernel;
  std::vector<std::pair<unsigned, unsigned>> Includes; // (from, to)
  std::vector<std::pair<unsigned, unsigned>> Lookback; // (kernel slot, x)
  auto walk = [&](unsigned X, unsigned P, unsigned Prod) {
    const std::vector<Symbol> &Rhs = G.production(Prod).Rhs;
    unsigned Q = P;
    for (unsigned I = 0, E = unsigned(Rhs.size()); I != E; ++I) {
      if (G.isNonterminal(Rhs[I]) && Analysis.suffixNullable(Prod, I + 1))
        Includes.emplace_back(ntIndex(Q, Rhs[I]), X);
      int Next = transition(Q, Rhs[I]);
      assert(Next >= 0 && "missing transition for item symbol");
      Q = unsigned(Next);
      const State &St = States[Q];
      auto KIt = std::lower_bound(St.Items.begin(),
                                  St.Items.begin() + St.NumKernel,
                                  Item(Prod, I + 1));
      assert(KIt != St.Items.begin() + St.NumKernel &&
             *KIt == Item(Prod, I + 1) && "advanced item not in kernel");
      Lookback.emplace_back(KernelBase[Q] + unsigned(KIt - St.Items.begin()),
                            X);
    }
  };
  for (unsigned P = 0; P != NumStates; ++P) {
    const auto &Ts = States[P].Transitions;
    for (unsigned K = NtFirst[P]; K != Ts.size(); ++K)
      for (unsigned Prod : G.productionsOf(Ts[K].first))
        walk(Base[P] + K - NtFirst[P], P, Prod);
  }
  walk(Aug, 0, G.augmentedProduction());

  // Follow = DIGRAPH(includes, Read).
  Relation Inc;
  Inc.Begin.assign(NumNt + 2, 0);
  for (const auto &[From, To] : Includes)
    ++Inc.Begin[From + 1];
  for (unsigned X = 0; X != NumNt + 1; ++X)
    Inc.Begin[X + 1] += Inc.Begin[X];
  Inc.To.resize(Includes.size());
  {
    std::vector<unsigned> Fill(Inc.Begin.begin(), Inc.Begin.end() - 1);
    for (const auto &[From, To] : Includes)
      Inc.To[Fill[From]++] = To;
  }
  digraph(Inc, F, W);

  // Kernel items with the dot past position 0 take the union of their
  // lookback transitions' Follow sets; dot-0 items A -> • ω of state p
  // take Follow(p, A) (the augmented item of state 0 takes Aug's).
  std::vector<uint64_t> KernelLa(W * size_t(KernelBase[NumStates]), 0);
  for (const auto &[Slot, X] : Lookback) {
    uint64_t *Dst = &KernelLa[size_t(Slot) * W];
    const uint64_t *Src = &F[size_t(X) * W];
    for (unsigned I = 0; I != W; ++I)
      Dst[I] |= Src[I];
  }
  const Symbol AugStart = G.augmentedStart();
  for (unsigned P = 0; P != NumStates; ++P) {
    State &St = States[P];
    St.Lookaheads.clear();
    St.Lookaheads.reserve(St.Items.size());
    Symbol LastLhs;
    unsigned LastX = 0;
    for (unsigned I = 0, E = unsigned(St.Items.size()); I != E; ++I) {
      const Item &Itm = St.Items[I];
      const uint64_t *Src;
      if (Itm.Dot != 0) {
        assert(I < St.NumKernel && "closure items have the dot at 0");
        Src = &KernelLa[size_t(KernelBase[P] + I) * W];
      } else {
        Symbol Lhs = G.production(Itm.Prod).Lhs;
        if (Lhs != LastLhs) {
          LastLhs = Lhs;
          LastX = Lhs == AugStart ? Aug : ntIndex(P, Lhs);
        }
        Src = &F[size_t(LastX) * W];
      }
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
