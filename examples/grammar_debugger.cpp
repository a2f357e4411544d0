//===- examples/grammar_debugger.cpp - CLI conflict explainer --*- C++ -*-===//
//
// Part of lalrcex.
//
// The tool the paper describes, as a command line program: read a
// yacc-like grammar, report every unresolved conflict with a unifying or
// nonunifying counterexample.
//
//   grammar_debugger [options] <grammar-file | corpus:NAME>
//     -extendedsearch     full product-parser search (paper §6)
//     -nonunifying        skip the unifying search entirely
//     -timeout <seconds>  per-conflict unifying budget (default 5)
//     -cumulative <sec>   cumulative budget across all conflicts (default
//                         120; 0 = unlimited)
//     -steps <n>          deterministic per-conflict configuration budget
//     -memory-mb <n>      accounted memory budget per unifying search
//     -jobs <n>           worker threads for conflict examination
//                         (default: hardware concurrency; 1 = serial)
//     -lss-stats          print per-conflict lookahead-sensitive search
//                         stats (vertices expanded, enqueued, and pruned
//                         by dominance)
//     -metrics            print the pipeline metrics registry (per-phase
//                         wall times, search-effort counters, guard trips)
//                         after the run
//     -trace-out <file>   write phase trace spans as Chrome trace_event
//                         JSON (load in chrome://tracing or Perfetto)
//     -canonical          use a canonical LR(1) automaton (no LALR merging)
//     -dump               print the automaton states (Figure 2 style)
//     -print              echo the normalized grammar and exit
//     -list               list built-in corpus grammar names and exit
//
// Exit codes (distinct so CI and the differential harness can tell the
// failure modes apart):
//   0  success, no reported conflicts
//   1  success, grammar has reported conflicts
//   2  usage error
//   3  input/parse failure (file unreadable, or diagnostics with errors)
//   4  analysis/budget failure (some report degraded by a tripped budget
//      or an internal search failure)
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "counterexample/CounterexampleFinder.h"
#include "grammar/GrammarParser.h"
#include "grammar/GrammarPrinter.h"
#include "lr/AutomatonPrinter.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/Trace.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace lalrcex;

static int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [-extendedsearch] [-nonunifying] "
               "[-timeout <sec>] [-cumulative <sec>] [-steps <n>] "
               "[-memory-mb <n>] [-jobs <n>] "
               "[-lss-stats] [-metrics] "
               "[-trace-out <file>] [-canonical] "
               "[-dump] [-print] [-list] <grammar-file | corpus:NAME>\n",
               Prog);
  return 2;
}

/// Parses the value of numeric flag \p Flag with strict validation; prints
/// a usage error and exits via the caller's `return` on garbage like
/// "-jobs banana" that std::atoi would silently turn into 0.
static bool parseFlagValue(const char *Flag, const char *Value, uint64_t Max,
                           uint64_t &Out) {
  std::optional<uint64_t> V = parseUnsigned(Value, Max);
  if (!V) {
    std::fprintf(stderr, "%s: '%s' is not a non-negative integer (max %llu)\n",
                 Flag, Value, (unsigned long long)Max);
    return false;
  }
  Out = *V;
  return true;
}

int main(int argc, char **argv) {
  FinderOptions Opts;
  std::string Source;
  std::string TracePath;
  bool Dump = false, Print = false, PrintMetrics = false;
  AutomatonKind Kind = AutomatonKind::Lalr1;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-extendedsearch") {
      Opts.ExtendedSearch = true;
    } else if (Arg == "-nonunifying") {
      Opts.UnifyingEnabled = false;
    } else if (Arg == "-timeout") {
      if (++I == argc)
        return usage(argv[0]);
      Opts.ConflictTimeLimitSeconds = std::atof(argv[I]);
    } else if (Arg == "-cumulative") {
      if (++I == argc)
        return usage(argv[0]);
      Opts.CumulativeTimeLimitSeconds = std::atof(argv[I]);
    } else if (Arg == "-steps") {
      uint64_t V;
      if (++I == argc || !parseFlagValue("-steps", argv[I], SIZE_MAX, V))
        return usage(argv[0]);
      Opts.MaxConfigurations = size_t(V);
    } else if (Arg == "-memory-mb") {
      // Cap at SIZE_MAX >> 20 so the megabyte-to-byte shift cannot wrap.
      uint64_t V;
      if (++I == argc ||
          !parseFlagValue("-memory-mb", argv[I], SIZE_MAX >> 20, V))
        return usage(argv[0]);
      Opts.MemoryLimitBytes = size_t(V) << 20;
    } else if (Arg == "-jobs") {
      uint64_t V;
      if (++I == argc || !parseFlagValue("-jobs", argv[I], UINT32_MAX, V))
        return usage(argv[0]);
      Opts.Jobs = unsigned(V);
    } else if (Arg == "-lss-stats") {
      Opts.CollectLssStats = true;
    } else if (Arg == "-metrics") {
      PrintMetrics = true;
    } else if (Arg == "-trace-out") {
      if (++I == argc)
        return usage(argv[0]);
      TracePath = argv[I];
    } else if (Arg == "-dump") {
      Dump = true;
    } else if (Arg == "-print") {
      Print = true;
    } else if (Arg == "-canonical") {
      Kind = AutomatonKind::Canonical;
    } else if (Arg == "-list") {
      for (const CorpusEntry &E : corpus())
        std::printf("%-24s (%s)\n", E.Name.c_str(), E.Category.c_str());
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      Source = Arg;
    }
  }
  if (Source.empty())
    return usage(argv[0]);

  // Load the grammar text.
  std::string Text;
  if (Source.rfind("corpus:", 0) == 0) {
    const CorpusEntry *E = findCorpusEntry(Source.substr(7));
    if (!E) {
      std::fprintf(stderr, "no corpus grammar named '%s' (try -list)\n",
                   Source.substr(7).c_str());
      return 1;
    }
    Text = E->Text;
  } else {
    std::ifstream In(Source);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", Source.c_str());
      return 3;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Text = Buf.str();
  }

  GrammarParseResult Parsed = parseGrammar(Text);
  // Warnings (ignored %glr-parser, duplicate %token, ...) always print;
  // with errors the full caret-annotated list goes to stderr and the
  // distinct parse-failure exit code tells tooling what happened.
  if (!Parsed.Diags.empty())
    std::fputs(Parsed.renderDiagnostics(Text).c_str(), stderr);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "%s: %zu error(s), %zu warning(s)\n", Source.c_str(),
                 Parsed.ErrorCount, Parsed.WarningCount);
    return 3;
  }
  std::optional<Grammar> G = std::move(Parsed.G);

  if (Print) {
    std::fputs(printGrammarText(*G).c_str(), stdout);
    return 0;
  }

  // Observability sinks: only materialized when requested, so the default
  // run keeps every instrumentation site on its null fast path.
  MetricsRegistry Metrics;
  TraceRecorder Trace;
  if (PrintMetrics)
    Opts.Metrics = &Metrics;
  if (!TracePath.empty())
    Opts.Trace = &Trace;

  GrammarAnalysis Analysis(*G, Opts.Metrics, Opts.Trace);
  AutomatonOptions AutoOpts;
  AutoOpts.Kind = Kind;
  AutoOpts.Metrics = Opts.Metrics;
  AutoOpts.Trace = Opts.Trace;
  Automaton M(*G, Analysis, AutoOpts);
  ParseTable Table(M);

  if (Dump) {
    std::fputs(dumpAutomaton(M, &Table).c_str(), stdout);
    return 0;
  }

  std::vector<Conflict> Conflicts = Table.reportedConflicts();
  unsigned Resolved = 0;
  for (const Conflict &C : Table.conflicts())
    if (!C.reported())
      ++Resolved;
  std::printf("%u nonterminals, %u productions, %u states\n",
              G->numNonterminals() - 1, G->numProductions() - 1,
              M.numStates());
  std::printf("%zu conflicts (%u more resolved by precedence)\n\n",
              Conflicts.size(), Resolved);
  std::string Expectation = Table.checkExpectations();
  if (!Expectation.empty())
    std::printf("warning: %s\n", Expectation.c_str());

  CounterexampleFinder Finder(Table, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  unsigned Degraded = 0;
  for (const ConflictReport &R : Reports) {
    if (R.Failure)
      ++Degraded;
    std::printf("%s  (%.3fs, %zu configurations)\n",
                Finder.render(R).c_str(), R.Seconds, R.Configurations);
    if (R.Failure)
      std::printf("  [degraded: %s in %s%s%s]\n",
                  FailureReason::kindName(R.Failure->K),
                  R.Failure->Stage.c_str(),
                  R.Failure->Detail.empty() ? "" : ": ",
                  R.Failure->Detail.c_str());
    if (R.Lss)
      std::printf("  [lss: %zu expanded, %zu enqueued, %zu pruned by "
                  "dominance]\n",
                  R.Lss->Expanded, R.Lss->Enqueued, R.Lss->DominancePruned);
    std::printf("\n");
  }
  std::printf("examined %zu conflicts with %u worker thread(s); "
              "%zu cumulative configurations charged\n",
              Reports.size(),
              CounterexampleFinder::resolveJobs(Opts.Jobs),
              Finder.cumulativeGuard().steps());

  if (PrintMetrics) {
    std::printf("\n-- metrics --\n%s",
                Metrics.snapshot().renderText().c_str());
  }
  if (!TracePath.empty()) {
    if (!Trace.writeChromeJson(TracePath)) {
      std::fprintf(stderr, "cannot write trace '%s'\n", TracePath.c_str());
      return 3;
    }
    std::fprintf(stderr, "wrote %zu trace span(s) to %s (%llu dropped)\n",
                 Trace.events().size(), TracePath.c_str(),
                 (unsigned long long)Trace.dropped());
  }
  if (Degraded > 0) {
    std::fprintf(stderr,
                 "%u report(s) degraded by budget/analysis failure\n",
                 Degraded);
    return 4;
  }
  return Conflicts.empty() ? 0 : 1;
}
