//===- bench/table1.cpp - Reproduces the paper's Table 1 -------*- C++ -*-===//
//
// Part of lalrcex.
//
// For every corpus grammar (every Table 1 row rebuilt per DESIGN.md),
// runs the counterexample finder with the paper's budgets (5 s per
// conflict, 2 min cumulative; scale with --budget=X) and prints the
// paper's columns:
//
//   #nonterms #prods #states #conflicts Amb? #unif #nonunif #timeout
//   total(s) average(s)
//
// Absolute times will differ from the paper's 2009-era hardware; the
// shape to check (EXPERIMENTS.md) is: unifying counterexamples found for
// ambiguous grammars, nonunifying for unambiguous ones, timeouts only on
// the engineered java-ext rows, and per-conflict averages that grow only
// marginally with grammar size.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "cache/AnalysisCache.h"
#include "counterexample/CounterexampleFinder.h"
#include "grammar/GrammarParser.h"
#include "support/StrUtil.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

using namespace lalrcex;
using namespace lalrcex::bench;

int main(int argc, char **argv) {
  double Scale = budgetScale(argc, argv);
  bool ShowExamples = false;
  unsigned Jobs = 4;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--show-examples"))
      ShowExamples = true;
    else if (!std::strncmp(argv[I], "--jobs=", 7)) {
      std::optional<uint64_t> V = parseUnsigned(argv[I] + 7, UINT32_MAX);
      if (!V) {
        std::fprintf(stderr,
                     "--jobs: '%s' is not a non-negative integer\n",
                     argv[I] + 7);
        return 2;
      }
      Jobs = unsigned(*V);
    }
  }
  if (Jobs == 0)
    Jobs = 1;
  std::vector<BenchRecord> Records;

  std::printf("Table 1 reproduction (budgets: %.1fs/conflict, %.0fs "
              "cumulative; scale with --budget=X)\n\n",
              5.0 * Scale, 120.0 * Scale);
  std::printf("%-22s %6s %6s %7s %6s %4s %6s %8s %8s %9s %9s\n", "grammar",
              "#nt", "#prods", "#states", "#conf", "amb", "#unif",
              "#nonunif", "#timeout", "total(s)", "avg(s)");

  std::string Section;
  for (const CorpusEntry &E : corpus()) {
    if (E.Category != Section) {
      Section = E.Category;
      std::printf("---- %s ----\n", Section.c_str());
    }
    auto B = buildEntry(E);

    FinderOptions Opts;
    Opts.ConflictTimeLimitSeconds = 5.0 * Scale;
    Opts.CumulativeTimeLimitSeconds = 120.0 * Scale;
    CounterexampleFinder Finder(B->T, Opts);

    unsigned Unif = 0, Nonunif = 0, Timeout = 0;
    // Like the paper, "total" counts only the conflicts resolved within
    // the time limit; timeouts are reported in their own column.
    double Total = 0;
    Stopwatch RowClock;
    std::vector<ConflictReport> Reports = Finder.examineAll();
    double RowMs = RowClock.milliseconds();
    size_t Confs = 0, Peak = 0;
    for (const ConflictReport &R : Reports) {
      Confs += R.Configurations;
      Peak = std::max(Peak, R.PeakBytes);
    }
    for (const ConflictReport &R : Reports) {
      switch (R.Status) {
      case CounterexampleStatus::UnifyingFound:
        ++Unif;
        Total += R.Seconds;
        break;
      case CounterexampleStatus::NonunifyingComplete:
        ++Nonunif;
        Total += R.Seconds;
        break;
      case CounterexampleStatus::NonunifyingTimeout:
        ++Timeout;
        break;
      case CounterexampleStatus::Cancelled:
      case CounterexampleStatus::Failed:
        break;
      }
    }

    const char *Amb = !E.Ambiguous ? "?" : (*E.Ambiguous ? "yes" : "no");
    unsigned Found = Unif + Nonunif;
    std::string Avg = Reports.empty()
                          ? "-"
                          : (Found ? formatSeconds(Total / Found) : "T/L");
    std::printf("%-22s %6u %6u %7u %6zu %4s %6u %8u %8u %9.3f %9s\n",
                E.Name.c_str(), B->G.numNonterminals() - 1,
                B->G.numProductions() - 1, B->M.numStates(), Reports.size(),
                Amb, Unif, Nonunif, Timeout, Total, Avg.c_str());

    BenchRecord Rec;
    Rec.Name = "table1-row";
    Rec.Grammar = E.Name;
    Rec.Conflicts = Reports.size();
    Rec.Jobs = 1;
    Rec.WallMsSerial = RowMs;
    Rec.Configurations = Confs;
    Rec.PeakBytes = Peak;
    Records.push_back(Rec);

    if (ShowExamples) {
      for (const ConflictReport &R : Reports)
        std::printf("%s\n", Finder.render(R).c_str());
    }
  }

  // Parallel examineAll: serial vs. --jobs=N wall clock on the
  // multi-conflict grammars. stackovf10 and the java-ext rows are
  // deadline-dominated, so their per-conflict timeouts overlap across
  // workers and the speedup shows even on a single core.
  std::printf("\nParallel examineAll (Jobs=1 vs. Jobs=%u)\n", Jobs);
  std::printf("%-22s %6s %12s %12s %9s\n", "grammar", "#conf", "serial(ms)",
              "jobs(ms)", "speedup");
  for (const char *Name : {"figure1", "xi", "stackovf10", "java-ext1"}) {
    const CorpusEntry *E = findCorpusEntry(Name);
    if (!E)
      continue;
    auto B = buildEntry(*E);

    FinderOptions Opts;
    Opts.ConflictTimeLimitSeconds = 5.0 * Scale;
    Opts.CumulativeTimeLimitSeconds = 120.0 * Scale;

    Opts.Jobs = 1;
    CounterexampleFinder Serial(B->T, Opts);
    Stopwatch SerialClock;
    std::vector<ConflictReport> SerialReports = Serial.examineAll();
    double SerialMs = SerialClock.milliseconds();

    Opts.Jobs = Jobs;
    CounterexampleFinder Parallel(B->T, Opts);
    Stopwatch ParallelClock;
    std::vector<ConflictReport> ParallelReports = Parallel.examineAll();
    double ParallelMs = ParallelClock.milliseconds();

    size_t Confs = 0, Peak = 0;
    for (const ConflictReport &R : ParallelReports) {
      Confs += R.Configurations;
      Peak = std::max(Peak, R.PeakBytes);
    }
    std::printf("%-22s %6zu %12.1f %12.1f %8.2fx\n", E->Name.c_str(),
                SerialReports.size(), SerialMs, ParallelMs,
                ParallelMs > 0 ? SerialMs / ParallelMs : 0.0);

    BenchRecord Rec;
    Rec.Name = "examine-all";
    Rec.Grammar = E->Name;
    Rec.Conflicts = SerialReports.size();
    Rec.Jobs = Jobs;
    Rec.WallMsSerial = SerialMs;
    Rec.WallMsParallel = ParallelMs;
    Rec.Configurations = Confs;
    Rec.PeakBytes = Peak;
    Records.push_back(Rec);
  }

  // Persistent report cache: the full pipeline (parse, automaton +
  // table, state-item graph, conflict reports) cold against an empty
  // cache directory, then warm against the populated one. Both runs
  // build the automaton, table and graph; the warm run serves the report
  // set from its `.rep` blob, so it measures the build plus the blob read
  // instead of search. One cache probe per run: the `.rep` read.
  std::printf("\nPersistent cache (cold vs. warm, full pipeline)\n");
  std::printf("%-22s %6s %12s %12s %9s\n", "grammar", "#conf", "cold(ms)",
              "warm(ms)", "speedup");
  std::string CacheDir =
      (std::filesystem::temp_directory_path() / "lalrcex_table1_cache")
          .string();
  for (const char *Name : {"figure1", "xi", "stackovf10", "SQL.4"}) {
    const CorpusEntry *E = findCorpusEntry(Name);
    if (!E)
      continue;
    std::error_code Ec;
    std::filesystem::remove_all(CacheDir, Ec); // ensure a cold start

    long Hits = 0, Misses = 0;
    size_t Conflicts = 0;
    auto runOnce = [&](long &HitSlot, long &MissSlot) {
      std::string Err;
      std::optional<Grammar> G = parseGrammarText(E->Text, &Err);
      if (!G)
        return;
      cache::AnalysisSession S(std::move(*G), AutomatonKind::Lalr1, nullptr);

      FinderOptions Opts;
      Opts.ConflictTimeLimitSeconds = 5.0 * Scale;
      Opts.CumulativeTimeLimitSeconds = 120.0 * Scale;
      Opts.CachePath = CacheDir;
      Opts.Jobs = 1;
      CounterexampleFinder Finder(S.table(), Opts);
      Conflicts = Finder.examineAll().size();
      (Finder.cacheActivity().ReportsFromCache ? HitSlot : MissSlot) += 1;
    };

    Stopwatch ColdClock;
    runOnce(Misses, Misses); // cold: everything misses
    double ColdMs = ColdClock.milliseconds();
    Stopwatch WarmClock;
    runOnce(Hits, Misses);
    double WarmMs = WarmClock.milliseconds();

    std::printf("%-22s %6zu %12.1f %12.1f %8.2fx\n", E->Name.c_str(),
                Conflicts, ColdMs, WarmMs,
                WarmMs > 0 ? ColdMs / WarmMs : 0.0);

    BenchRecord Rec;
    Rec.Name = "cache-pipeline";
    Rec.Grammar = E->Name;
    Rec.Conflicts = Conflicts;
    Rec.Jobs = 1;
    Rec.WallMsCold = ColdMs;
    Rec.WallMsWarm = WarmMs;
    Rec.CacheHits = Hits;
    Rec.CacheMisses = Misses;
    Records.push_back(Rec);
  }
  {
    std::error_code Ec;
    std::filesystem::remove_all(CacheDir, Ec);
  }

  writeBenchRecords("table1", Records);
  return 0;
}
