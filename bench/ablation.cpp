//===- bench/ablation.cpp - Design-choice ablations ------------*- C++ -*-===//
//
// Part of lalrcex.
//
// Measures the design choices DESIGN.md calls out:
//
//   A. the shortest-lookahead-sensitive-path restriction on reverse
//      transitions (default) vs. extended search (§6 tradeoff);
//   B. the duplicate-production-step surcharge that postpones infinite
//      expansions (§5.4) — disabled, the search must rely on its budget;
//   C. the reverse-reachability pruning of the lookahead-sensitive
//      shortest-path search (§6 "finding shortest lookahead-sensitive
//      path");
//   D. LALR(1) vs. canonical LR(1) automata as the substrate.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "counterexample/CounterexampleFinder.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <vector>

using namespace lalrcex;
using namespace lalrcex::bench;

namespace {

const char *AblationGrammars[] = {
    "figure1", "figure7", "ambfailed01", "xi",     "eqn",    "stackovf10",
    "SQL.3",   "Pascal.2", "C.3",        "Java.1", "Java.3",
};

struct ModeResult {
  unsigned Unif = 0, Other = 0;
  double Seconds = 0;
  uint64_t Configs = 0;
};

ModeResult runMode(const ParseTable &T, const FinderOptions &Opts) {
  ModeResult R;
  CounterexampleFinder Finder(T, Opts);
  Stopwatch W;
  for (const ConflictReport &Rep : Finder.examineAll()) {
    if (Rep.Status == CounterexampleStatus::UnifyingFound)
      ++R.Unif;
    else
      ++R.Other;
    R.Configs += Rep.Configurations;
  }
  R.Seconds = W.seconds();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = budgetScale(argc, argv);

  std::printf("Ablation A/B: search restriction and duplicate penalty\n");
  std::printf("%-14s %6s | %22s | %22s | %22s\n", "", "", "default",
              "extended search", "no duplicate penalty");
  std::printf("%-14s %6s | %6s %7s %7s | %6s %7s %7s | %6s %7s %7s\n",
              "grammar", "#conf", "unif", "time(s)", "cfgs", "unif",
              "time(s)", "cfgs", "unif", "time(s)", "cfgs");

  for (const char *Name : AblationGrammars) {
    auto B = buildEntry(*findCorpusEntry(Name));
    size_t Conflicts = B->T.reportedConflicts().size();

    FinderOptions Default;
    Default.ConflictTimeLimitSeconds = 1.0 * Scale;
    Default.CumulativeTimeLimitSeconds = 20.0 * Scale;

    FinderOptions Extended = Default;
    Extended.ExtendedSearch = true;

    ModeResult RD = runMode(B->T, Default);
    ModeResult RE = runMode(B->T, Extended);

    // C-style knob through the search options: kill the duplicate
    // surcharge (configurable via FinderOptions? it lives on
    // UnifyingOptions; drive the search directly for this mode).
    ModeResult RN;
    {
      StateItemGraph Graph(B->M);
      UnifyingSearch Search(Graph);
      Stopwatch W;
      for (const Conflict &C : B->T.reportedConflicts()) {
        StateItemGraph::NodeId Reduce =
            Graph.nodeFor(C.State, C.reduceItem(B->G));
        StateItemGraph::NodeId Other =
            C.K == Conflict::ShiftReduce
                ? Graph.nodeFor(C.State, C.ShiftItm)
                : Graph.nodeFor(C.State,
                                Item(C.OtherProd,
                                     uint32_t(B->G.production(C.OtherProd)
                                                  .Rhs.size())));
        std::optional<LssPath> Path =
            shortestLookaheadSensitivePath(Graph, Reduce, C.Token);
        if (!Path)
          continue;
        UnifyingOptions UO;
        UO.TimeLimitSeconds = 1.0 * Scale;
        UO.DuplicateProductionCost = 0;
        UnifyingResult UR = Search.search(Reduce, Other, C.Token, &*Path, UO);
        if (UR.Status == UnifyingStatus::Found)
          ++RN.Unif;
        else
          ++RN.Other;
        RN.Configs += UR.ConfigurationsExplored;
      }
      RN.Seconds = W.seconds();
    }

    std::printf("%-14s %6zu | %6u %7.3f %7llu | %6u %7.3f %7llu | "
                "%6u %7.3f %7llu\n",
                Name, Conflicts, RD.Unif, RD.Seconds,
                (unsigned long long)RD.Configs, RE.Unif, RE.Seconds,
                (unsigned long long)RE.Configs, RN.Unif, RN.Seconds,
                (unsigned long long)RN.Configs);
  }

  std::printf("\nAblation C: reverse-reachability pruning of the "
              "lookahead-sensitive path search\n");
  std::printf("%-14s %12s %12s %10s\n", "grammar", "pruned(s)",
              "unpruned(s)", "speedup");
  for (const char *Name : {"figure1", "Pascal.1", "C.1", "Java.1"}) {
    auto B = buildEntry(*findCorpusEntry(Name));
    StateItemGraph Graph(B->M);
    std::vector<Conflict> Cs = B->T.reportedConflicts();
    if (Cs.empty())
      continue;
    const Conflict &C = Cs.front();
    StateItemGraph::NodeId Reduce =
        Graph.nodeFor(C.State, C.reduceItem(B->G));
    const int Iters = 20;
    Stopwatch W1;
    for (int I = 0; I != Iters; ++I)
      (void)shortestLookaheadSensitivePath(Graph, Reduce, C.Token, true);
    double Pruned = W1.seconds() / Iters;
    Stopwatch W2;
    for (int I = 0; I != Iters; ++I)
      (void)shortestLookaheadSensitivePath(Graph, Reduce, C.Token, false);
    double Unpruned = W2.seconds() / Iters;
    std::printf("%-14s %12.5f %12.5f %9.1fx\n", Name, Pruned, Unpruned,
                Pruned > 0 ? Unpruned / Pruned : 0.0);
  }

  std::printf("\nAblation D: LALR(1) vs canonical LR(1) substrate\n");
  std::printf("%-14s %10s %10s %10s %10s %12s %12s\n", "grammar",
              "lalr-st", "lr1-st", "lalr-conf", "lr1-conf", "lalr-time",
              "lr1-time");
  for (const char *Name : {"figure1", "SQL.2", "Pascal.1", "C.1"}) {
    const CorpusEntry *E = findCorpusEntry(Name);
    std::string Err;
    std::optional<Grammar> G = parseGrammarText(E->Text, &Err);
    GrammarAnalysis A(*G);

    Stopwatch WL;
    Automaton Lalr(*G, A, AutomatonKind::Lalr1);
    ParseTable TL(Lalr);
    FinderOptions Opts;
    Opts.ConflictTimeLimitSeconds = 1.0 * Scale;
    CounterexampleFinder FL(TL, Opts);
    size_t LalrConf = FL.examineAll().size();
    double LalrTime = WL.seconds();

    Stopwatch WC;
    Automaton Canon(*G, A, AutomatonKind::Canonical);
    ParseTable TC(Canon);
    CounterexampleFinder FC(TC, Opts);
    size_t CanonConf = FC.examineAll().size();
    double CanonTime = WC.seconds();

    std::printf("%-14s %10u %10u %10zu %10zu %12.3f %12.3f\n", Name,
                Lalr.numStates(), Canon.numStates(), LalrConf, CanonConf,
                LalrTime, CanonTime);
  }
  return 0;
}
