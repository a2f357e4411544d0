//===- bench/construction_layers.cpp - Construction per layer --*- C++ -*-===//
//
// Part of lalrcex.
//
// Times each construction layer run alone: grammar analysis, the LALR(1)
// automaton, the parse table and the state-item graph. Each grammar is
// built 15 times and each layer keeps its minimum; the corpus row sums
// those minima over every corpus grammar but worst-case-conflict (with
// ansi_c.y, cexbench's corpus-cold set), Java.2 gets its own row, and so
// does each grammar file named on the command line.
//
//   construction_layers [file.y ...]
//
// Pin it to one core (taskset -c 2) on a quiet machine: the minimum of a
// sub-millisecond build is only as steady as the host.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "counterexample/StateItemGraph.h"
#include "grammar/GrammarParser.h"
#include "lr/ParseTable.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace lalrcex;

namespace {

/// Minimum milliseconds per layer.
struct Layers {
  double Analysis = 1e30, Automaton = 1e30, Table = 1e30, Graph = 1e30;

  double total() const { return Analysis + Automaton + Table + Graph; }
};

constexpr unsigned Rounds = 15;

Layers measure(const Grammar &G) {
  Layers Min;
  for (unsigned R = 0; R != Rounds; ++R) {
    Stopwatch W;
    GrammarAnalysis A(G);
    const double Analysis = W.milliseconds();
    W.restart();
    Automaton M(G, A);
    const double Built = W.milliseconds();
    W.restart();
    ParseTable T(M);
    const double Table = W.milliseconds();
    W.restart();
    StateItemGraph Graph(M);
    const double GraphMs = W.milliseconds();
    Min.Analysis = std::min(Min.Analysis, Analysis);
    Min.Automaton = std::min(Min.Automaton, Built);
    Min.Table = std::min(Min.Table, Table);
    Min.Graph = std::min(Min.Graph, GraphMs);
  }
  return Min;
}

void printRow(const std::string &Name, const Layers &L) {
  std::printf("%-22s %9.3f %9.3f %9.3f %9.3f %9.3f\n", Name.c_str(),
              L.Analysis, L.Automaton, L.Table, L.Graph, L.total());
}

} // namespace

int main(int Argc, char **Argv) {

  std::printf("%-22s %9s %9s %9s %9s %9s   (ms, min of %u)\n", "grammar",
              "analysis", "automaton", "table", "graph", "total", Rounds);
  Layers Sum{0, 0, 0, 0};
  unsigned Count = 0;
  for (const CorpusEntry &E : corpus()) {
    if (E.Name == "worst-case-conflict")
      continue;
    Layers L = measure(loadCorpusGrammar(E.Name));
    if (E.Name == "Java.2")
      printRow(E.Name, L);
    Sum.Analysis += L.Analysis;
    Sum.Automaton += L.Automaton;
    Sum.Table += L.Table;
    Sum.Graph += L.Graph;
    ++Count;
  }
  printRow("corpus sum (" + std::to_string(Count) + ")", Sum);

  for (int I = 1; I < Argc; ++I) {
    const std::string Path = Argv[I];
    std::ifstream In(Path, std::ios::binary);
    std::stringstream Buf;
    if (In)
      Buf << In.rdbuf();
    GrammarParseResult R = parseGrammar(Buf.str());
    if (!In || !R.ok()) {
      std::fprintf(stderr, "cannot read grammar %s\n", Path.c_str());
      return 1;
    }
    std::string Name = Path.substr(Path.find_last_of('/') + 1);
    printRow(Name, measure(*R.G));
  }
  return 0;
}
