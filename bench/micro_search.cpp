//===- bench/micro_search.cpp - Search-phase throughput --------*- C++ -*-===//
//
// Part of lalrcex.
//
// Google-benchmark microbenchmarks for the counterexample searches: the
// shortest lookahead-sensitive path (§4), the nonunifying builder, and
// the product-parser unifying search (§5) on the paper's worked examples.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "counterexample/CounterexampleFinder.h"
#include "support/Metrics.h"

#include <benchmark/benchmark.h>

using namespace lalrcex;
using namespace lalrcex::bench;

namespace {

struct ConflictSetup {
  std::unique_ptr<BuiltGrammar> B;
  std::unique_ptr<StateItemGraph> Graph;
  Conflict C;
  StateItemGraph::NodeId ReduceNode;

  ConflictSetup(const char *Grammar, const char *Token) {
    B = buildEntry(*findCorpusEntry(Grammar));
    Graph = std::make_unique<StateItemGraph>(B->M);
    Symbol T = B->G.symbolByName(Token);
    for (const Conflict &Cand : B->T.reportedConflicts()) {
      if (Cand.Token == T) {
        C = Cand;
        break;
      }
    }
    ReduceNode = Graph->nodeFor(C.State, C.reduceItem(B->G));
  }
};

void BM_ShortestLookaheadSensitivePath(benchmark::State &State) {
  ConflictSetup S("figure1", "else");
  for (auto _ : State) {
    auto Path = shortestLookaheadSensitivePath(*S.Graph, S.ReduceNode,
                                               S.C.Token);
    benchmark::DoNotOptimize(Path->Steps.size());
  }
}
BENCHMARK(BM_ShortestLookaheadSensitivePath);

void BM_ShortestLookaheadSensitivePathReference(benchmark::State &State) {
  // The retained set-valued reference BFS, for comparison.
  ConflictSetup S("figure1", "else");
  for (auto _ : State) {
    auto Path = shortestLookaheadSensitivePathReference(
        *S.Graph, S.ReduceNode, S.C.Token);
    benchmark::DoNotOptimize(Path->Steps.size());
  }
}
BENCHMARK(BM_ShortestLookaheadSensitivePathReference);

void BM_NonunifyingCounterexample(benchmark::State &State) {
  ConflictSetup S("figure3", "a");
  NonunifyingBuilder Builder(*S.Graph);
  auto Path =
      shortestLookaheadSensitivePath(*S.Graph, S.ReduceNode, S.C.Token);
  StateItemGraph::NodeId Other =
      S.Graph->nodeFor(S.C.State, S.C.ShiftItm);
  for (auto _ : State) {
    auto Ex = Builder.build(*Path, Other, S.C.Token);
    benchmark::DoNotOptimize(Ex.has_value());
  }
}
BENCHMARK(BM_NonunifyingCounterexample);

void BM_UnifyingDanglingElse(benchmark::State &State) {
  ConflictSetup S("figure1", "else");
  UnifyingSearch Search(*S.Graph);
  auto Path =
      shortestLookaheadSensitivePath(*S.Graph, S.ReduceNode, S.C.Token);
  StateItemGraph::NodeId Other =
      S.Graph->nodeFor(S.C.State, S.C.ShiftItm);
  UnifyingOptions Opts;
  for (auto _ : State) {
    UnifyingResult R =
        Search.search(S.ReduceNode, Other, S.C.Token, &*Path, Opts);
    benchmark::DoNotOptimize(R.Status);
  }
}
BENCHMARK(BM_UnifyingDanglingElse);

void BM_UnifyingChallengingConflict(benchmark::State &State) {
  // The §3.1 conflict: stages 3-4 must reach across two statements.
  ConflictSetup S("figure1", "digit");
  UnifyingSearch Search(*S.Graph);
  auto Path =
      shortestLookaheadSensitivePath(*S.Graph, S.ReduceNode, S.C.Token);
  StateItemGraph::NodeId Other =
      S.Graph->nodeFor(S.C.State, S.C.ShiftItm);
  UnifyingOptions Opts;
  for (auto _ : State) {
    UnifyingResult R =
        Search.search(S.ReduceNode, Other, S.C.Token, &*Path, Opts);
    benchmark::DoNotOptimize(R.Status);
  }
}
BENCHMARK(BM_UnifyingChallengingConflict);

void BM_ExamineWholeGrammar(benchmark::State &State) {
  auto B = buildEntry(*findCorpusEntry("C.1"));
  for (auto _ : State) {
    CounterexampleFinder Finder(B->T);
    auto Reports = Finder.examineAll();
    benchmark::DoNotOptimize(Reports.size());
  }
}
BENCHMARK(BM_ExamineWholeGrammar);

void BM_CanonicalLr1Construction(benchmark::State &State) {
  const CorpusEntry *E = findCorpusEntry("C.1");
  Grammar G = *parseGrammarText(E->Text);
  GrammarAnalysis A(G);
  for (auto _ : State) {
    Automaton M(G, A, AutomatonKind::Canonical);
    benchmark::DoNotOptimize(M.numStates());
  }
}
BENCHMARK(BM_CanonicalLr1Construction);

/// One unifying-search measurement row for BENCH_micro_search.json.
BenchRecord searchRecord(const char *Name, const char *Grammar,
                         const char *Token) {
  ConflictSetup S(Grammar, Token);
  UnifyingSearch Search(*S.Graph);
  auto Path =
      shortestLookaheadSensitivePath(*S.Graph, S.ReduceNode, S.C.Token);
  StateItemGraph::NodeId Other = S.Graph->nodeFor(S.C.State, S.C.ShiftItm);
  UnifyingOptions Opts;
  UnifyingResult Last;
  double Ms = minWallMs([&] {
    Last = Search.search(S.ReduceNode, Other, S.C.Token, &*Path, Opts);
  });

  BenchRecord R;
  R.Name = Name;
  R.Grammar = Grammar;
  R.Conflicts = 1;
  R.WallMsSerial = Ms;
  R.Configurations = Last.ConfigurationsExplored;
  R.PeakBytes = Last.PeakBytes;
  return R;
}

/// Shortest lookahead-sensitive path over every reported conflict of one
/// grammar: the one-bit search ("lss-pooled", the name of the pooled search
/// it replaced, kept so the committed baselines still match) vs. the
/// retained set-valued reference BFS ("lss-reference"). The two rows share
/// a grammar and step count, so baseline comparisons divide their
/// wall_ms_serial fields directly; the CI perf smoke checks lss-pooled
/// against bench/baselines. \returns false, adding no rows, when the two
/// searches' step totals differ: timing a search that finds other paths
/// would gate nothing.
bool lssRecords(const char *Grammar, std::vector<BenchRecord> &Records) {
  auto B = buildEntry(*findCorpusEntry(Grammar));
  StateItemGraph Graph(B->M);
  std::vector<std::pair<StateItemGraph::NodeId, Symbol>> Conflicts;
  for (const Conflict &C : B->T.reportedConflicts())
    Conflicts.emplace_back(Graph.nodeFor(C.State, C.reduceItem(B->G)),
                           C.Token);

  size_t PooledSteps = 0;
  double PooledMs = minWallMs([&] {
    PooledSteps = 0;
    for (const auto &[Node, Token] : Conflicts) {
      auto Path = shortestLookaheadSensitivePath(Graph, Node, Token);
      PooledSteps += Path ? Path->Steps.size() : 0;
    }
  });
  size_t RefSteps = 0;
  double RefMs = minWallMs([&] {
    RefSteps = 0;
    for (const auto &[Node, Token] : Conflicts) {
      auto Path =
          shortestLookaheadSensitivePathReference(Graph, Node, Token);
      RefSteps += Path ? Path->Steps.size() : 0;
    }
  });
  if (PooledSteps != RefSteps) {
    std::fprintf(stderr,
                 "error: pooled/reference LSS step totals differ on %s "
                 "(%zu vs %zu)\n",
                 Grammar, PooledSteps, RefSteps);
    return false;
  }

  BenchRecord Pooled;
  Pooled.Name = "lss-pooled";
  Pooled.Grammar = Grammar;
  Pooled.Conflicts = Conflicts.size();
  Pooled.WallMsSerial = PooledMs;
  Pooled.Configurations = PooledSteps;
  Records.push_back(Pooled);

  BenchRecord Ref;
  Ref.Name = "lss-reference";
  Ref.Grammar = Grammar;
  Ref.Conflicts = Conflicts.size();
  Ref.WallMsSerial = RefMs;
  Ref.Configurations = RefSteps;
  Records.push_back(Ref);
  return true;
}

/// The metrics-overhead pair: examineAll serially with the registry off
/// and on, same grammar, best-of-N each. CI's perf smoke compares the two
/// wall_ms_serial fields (bench/check_metrics_overhead.py) to hold the
/// "off is free, on is cheap" claim; the -on row also carries the
/// flattened snapshot so the schema-3 metrics object gets exercised.
void metricsOverheadRecords(const char *Grammar,
                            std::vector<BenchRecord> &Records) {
  auto B = buildEntry(*findCorpusEntry(Grammar));

  FinderOptions Opts;
  Opts.Jobs = 1;
  double OffMs = minWallMs([&] {
    CounterexampleFinder Finder(B->T, Opts);
    benchmark::DoNotOptimize(Finder.examineAll().size());
  });

  MetricsRegistry Registry;
  Opts.Metrics = &Registry;
  double OnMs = minWallMs([&] {
    CounterexampleFinder Finder(B->T, Opts);
    benchmark::DoNotOptimize(Finder.examineAll().size());
  });

  BenchRecord Off;
  Off.Name = "examine-all-metrics-off";
  Off.Grammar = Grammar;
  Off.WallMsSerial = OffMs;
  Records.push_back(Off);

  BenchRecord On;
  On.Name = "examine-all-metrics-on";
  On.Grammar = Grammar;
  On.WallMsSerial = OnMs;
  On.Metrics = Registry.snapshot().flatten();
  Records.push_back(On);
}

/// examineAll over a whole grammar, serial vs. a small worker pool.
BenchRecord examineAllRecord(const char *Grammar, unsigned Jobs) {
  auto B = buildEntry(*findCorpusEntry(Grammar));

  FinderOptions Opts;
  Opts.Jobs = 1;
  size_t Conflicts = 0, Confs = 0, Peak = 0;
  double SerialMs = minWallMs([&] {
    CounterexampleFinder Finder(B->T, Opts);
    std::vector<ConflictReport> Reports = Finder.examineAll();
    Conflicts = Reports.size();
    Confs = Peak = 0;
    for (const ConflictReport &R : Reports) {
      Confs += R.Configurations;
      Peak = std::max(Peak, R.PeakBytes);
    }
  });
  Opts.Jobs = Jobs;
  double ParallelMs = minWallMs([&] {
    CounterexampleFinder Finder(B->T, Opts);
    benchmark::DoNotOptimize(Finder.examineAll().size());
  });

  BenchRecord R;
  R.Name = "examine-all";
  R.Grammar = Grammar;
  R.Conflicts = Conflicts;
  R.Jobs = Jobs;
  R.WallMsSerial = SerialMs;
  R.WallMsParallel = ParallelMs;
  R.Configurations = Confs;
  R.PeakBytes = Peak;
  return R;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Machine-readable baseline (README.md documents the schema).
  std::vector<BenchRecord> Records;
  Records.push_back(
      searchRecord("unifying-dangling-else", "figure1", "else"));
  Records.push_back(
      searchRecord("unifying-challenging", "figure1", "digit"));
  Records.push_back(examineAllRecord("C.1", 4));
  metricsOverheadRecords("C.1", Records);
  for (const char *Grammar : {"figure1", "Pascal.1", "C.1", "Java.1"})
    if (!lssRecords(Grammar, Records))
      return 1;
  writeBenchRecords("micro_search", Records);
  return 0;
}
