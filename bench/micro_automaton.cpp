//===- bench/micro_automaton.cpp - Construction throughput -----*- C++ -*-===//
//
// Part of lalrcex.
//
// Google-benchmark microbenchmarks for the substrate layers: grammar
// parsing, LALR automaton construction, table construction, and
// state-item graph construction, across grammar sizes.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "counterexample/StateItemGraph.h"
#include "earley/DerivationCounter.h"
#include "lexer/Lexer.h"

#include <benchmark/benchmark.h>

using namespace lalrcex;
using namespace lalrcex::bench;

namespace {

const char *grammarFor(int Index) {
  switch (Index) {
  case 0:
    return "figure1";
  case 1:
    return "SQL.2";
  case 2:
    return "Pascal.1";
  case 3:
    return "C.1";
  default:
    return "Java.1";
  }
}

void BM_ParseGrammarText(benchmark::State &State) {
  const CorpusEntry *E = findCorpusEntry(grammarFor(int(State.range(0))));
  for (auto _ : State) {
    std::optional<Grammar> G = parseGrammarText(E->Text);
    benchmark::DoNotOptimize(G);
  }
  State.SetLabel(E->Name);
}
BENCHMARK(BM_ParseGrammarText)->DenseRange(0, 4);

void BM_BuildAutomaton(benchmark::State &State) {
  const CorpusEntry *E = findCorpusEntry(grammarFor(int(State.range(0))));
  Grammar G = *parseGrammarText(E->Text);
  GrammarAnalysis A(G);
  for (auto _ : State) {
    Automaton M(G, A);
    benchmark::DoNotOptimize(M.numStates());
  }
  State.SetLabel(E->Name);
}
BENCHMARK(BM_BuildAutomaton)->DenseRange(0, 4);

void BM_BuildAutomatonBaseline(benchmark::State &State) {
  // The reference IndexSet fixpoints (Dragon 4.63 plus the in-state
  // closure rule; AutomatonOptions::ReferenceLookaheads).
  const CorpusEntry *E = findCorpusEntry(grammarFor(int(State.range(0))));
  Grammar G = *parseGrammarText(E->Text);
  GrammarAnalysis A(G);
  AutomatonOptions Opts;
  Opts.ReferenceLookaheads = true;
  for (auto _ : State) {
    Automaton M(G, A, Opts);
    benchmark::DoNotOptimize(M.numStates());
  }
  State.SetLabel(E->Name);
}
BENCHMARK(BM_BuildAutomatonBaseline)->DenseRange(0, 4);

void BM_BuildParseTable(benchmark::State &State) {
  const CorpusEntry *E = findCorpusEntry(grammarFor(int(State.range(0))));
  Grammar G = *parseGrammarText(E->Text);
  GrammarAnalysis A(G);
  Automaton M(G, A);
  for (auto _ : State) {
    ParseTable T(M);
    benchmark::DoNotOptimize(T.conflicts().size());
  }
  State.SetLabel(E->Name);
}
BENCHMARK(BM_BuildParseTable)->DenseRange(0, 4);

void BM_BuildStateItemGraph(benchmark::State &State) {
  const CorpusEntry *E = findCorpusEntry(grammarFor(int(State.range(0))));
  Grammar G = *parseGrammarText(E->Text);
  GrammarAnalysis A(G);
  Automaton M(G, A);
  for (auto _ : State) {
    StateItemGraph Graph(M);
    benchmark::DoNotOptimize(Graph.numNodes());
  }
  State.SetLabel(E->Name);
}
BENCHMARK(BM_BuildStateItemGraph)->DenseRange(0, 4);

void BM_GrammarAnalyses(benchmark::State &State) {
  const CorpusEntry *E = findCorpusEntry(grammarFor(int(State.range(0))));
  Grammar G = *parseGrammarText(E->Text);
  for (auto _ : State) {
    GrammarAnalysis A(G);
    benchmark::DoNotOptimize(A.isNullable(G.startSymbol()));
  }
  State.SetLabel(E->Name);
}
BENCHMARK(BM_GrammarAnalyses)->DenseRange(0, 4);

void BM_Tokenize(benchmark::State &State) {
  // The lexer substrate on a realistic C snippet.
  Grammar G = *parseGrammarText(findCorpusEntry("C.base")->Text);
  LexSpec Spec = LexSpec::fromGrammar(G);
  Spec.identifiers(G.symbolByName("IDENTIFIER"));
  Spec.numbers(G.symbolByName("CONSTANT"));
  Spec.literal("int", G.symbolByName("INT"));
  Spec.literal("return", G.symbolByName("RETURN"));
  Spec.literal("if", G.symbolByName("IF"));
  const std::string Text =
      "int fib ( int n ) { if ( n < 2 ) return n ; "
      "return fib ( n - 1 ) + fib ( n - 2 ) ; }";
  for (auto _ : State) {
    LexOutcome R = Spec.tokenize(Text);
    benchmark::DoNotOptimize(R.Tokens.size());
  }
}
BENCHMARK(BM_Tokenize);

void BM_DerivationCounting(benchmark::State &State) {
  // The independent validator on the dangling-else witness.
  Grammar G = *parseGrammarText(findCorpusEntry("figure1")->Text);
  GrammarAnalysis A(G);
  DerivationCounter D(G, A);
  Symbol Stmt = G.symbolByName("stmt");
  std::vector<Symbol> Input;
  for (const char *N :
       {"if", "expr", "then", "if", "expr", "then", "stmt", "else",
        "stmt"})
    Input.push_back(G.symbolByName(N));
  for (auto _ : State) {
    unsigned C = D.countDerivations(Stmt, Input);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_DerivationCounting);

/// Construction-phase timings for one grammar, as BENCH_*.json rows.
void constructionRecords(const char *Name,
                         std::vector<BenchRecord> &Records) {
  const CorpusEntry *E = findCorpusEntry(Name);
  Grammar G = *parseGrammarText(E->Text);
  GrammarAnalysis A(G);
  Automaton M(G, A);
  ParseTable T(M);
  size_t Conflicts = T.conflicts().size();

  auto Push = [&](const char *Phase, double Ms) {
    BenchRecord R;
    R.Name = Phase;
    R.Grammar = Name;
    R.Conflicts = Conflicts;
    R.WallMsSerial = Ms;
    Records.push_back(R);
  };
  Push("parse-grammar", minWallMs([&] {
         std::optional<Grammar> G2 = parseGrammarText(E->Text);
         benchmark::DoNotOptimize(G2);
       }));
  Push("build-automaton", minWallMs([&] {
         Automaton M2(G, A);
         benchmark::DoNotOptimize(M2.numStates());
       }));
  AutomatonOptions Baseline;
  Baseline.ReferenceLookaheads = true;
  Push("build-automaton-baseline", minWallMs([&] {
         Automaton M2(G, A, Baseline);
         benchmark::DoNotOptimize(M2.numStates());
       }));
  Push("build-parse-table", minWallMs([&] {
         ParseTable T2(M);
         benchmark::DoNotOptimize(T2.conflicts().size());
       }));
  Push("build-state-item-graph", minWallMs([&] {
         StateItemGraph Graph(M);
         benchmark::DoNotOptimize(Graph.numNodes());
       }));
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Machine-readable baseline (README.md documents the schema).
  std::vector<BenchRecord> Records;
  constructionRecords("figure1", Records);
  constructionRecords("C.1", Records);
  constructionRecords("Java.1", Records);
  writeBenchRecords("micro_automaton", Records);
  return 0;
}
