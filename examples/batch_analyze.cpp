//===- examples/batch_analyze.cpp - Batch corpus driver --------*- C++ -*-===//
//
// Part of lalrcex.
//
// Analyzes a whole directory of grammar files (or the built-in corpus)
// with the persistent report cache: grammars are sharded across a worker
// pool, each worker running the full pipeline — automaton + table
// (cache::AnalysisSession), state-item graph, and conflict reports
// (FinderOptions::CachePath) — and rendering one report file per grammar.
// A second run against the same cache directory serves every report set
// from its structure's `.rep` blob and must produce byte-identical report
// files; the CI cache-smoke job diffs the two output directories and
// compares the TOTAL_MS lines.
//
//   batch_analyze [options] <source>...
//     <source>          each positional argument is a grammar file, a
//                       directory of them, the whole built-in corpus
//                       ("corpus"), or one entry of it ("corpus:Java.2");
//                       the work lists concatenate
//     -cache <dir>      analysis cache directory (default: cache disabled)
//     -out <dir>        write <grammar>.txt report files here
//     -jobs <n>         grammar-level workers (default: hardware
//                       concurrency; conflicts within a grammar run
//                       serially so the pool is not oversubscribed)
//     -timeout <sec>    per-conflict unifying budget (default 5)
//     -cumulative <sec> per-grammar cumulative budget (default 120)
//     -steps <n>        deterministic per-conflict configuration budget
//     -canonical        use canonical LR(1) automatons
//     -metrics          collect the pipeline metrics registry per grammar:
//                       appends a metrics section to each report file,
//                       prints the merged aggregate after the summary, and
//                       attaches flattened metrics to the bench records
//     -edit-loop <n>    incremental replay mode: apply n seeded random
//                       single-production edits per grammar; after each,
//                       advance one persistent IncrementalSession (a cold
//                       build whose states are kernel-matched to the
//                       previous generation's when the structural delta
//                       permits) and run the finder against -cache, then
//                       run the whole pipeline cold without either;
//                       byte-compare the rendered reports, compare the
//                       two legs' grammar fingerprints and structural
//                       automaton hashes, and print per-edit wall
//                       time, a parse/automaton/search breakdown, the
//                       matched-state and conflict-reuse counts.
//                       Unless -cumulative is given explicitly, the
//                       cumulative clock is turned off in this mode: a
//                       finite cumulative budget couples conflicts and
//                       disables the conflict-level reuse the loop
//                       measures (DESIGN.md §5i)
//     -edit-seed <s>    seed for -edit-loop's edit stream (default 1)
//     -edit-kinds <m>   edit menu for -edit-loop: "all" (default) or
//                       "terminal" (add/remove/rename-terminal only, for
//                       gating the terminal-delta path in isolation)
//     -cache-max-mb <n> after the run, garbage-collect the cache
//                       directory down to n MiB (oldest blobs first)
//
// Output: one summary line per grammar, a final "TOTAL_MS <ms>" line, and
// bench/out/BENCH_batch_analyze.json (schema 9) with per-grammar
// cold/warm wall times and `.rep` hit/miss counts (plus metrics under
// -metrics; plus per-edit records with conflicts_reused /
// conflicts_recomputed / conflicts_remapped / states_reused /
// states_rebuilt under -edit-loop). -edit-loop exits nonzero on any
// incremental-vs-cold mismatch — of the rendered report bytes or of the
// session automaton's fingerprints — making it a standalone differential
// harness.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "cache/AnalysisCache.h"
#include "corpus/Corpus.h"
#include "counterexample/CounterexampleFinder.h"
#include "counterexample/IncrementalSession.h"
#include "grammar/GrammarEdit.h"
#include "grammar/GrammarParser.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

using namespace lalrcex;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [-cache <dir>] [-out <dir>] [-jobs <n>] "
               "[-timeout <sec>] [-cumulative <sec>] [-steps <n>] "
               "[-canonical] [-metrics] [-edit-loop <n> [-edit-seed <s>] "
               "[-edit-kinds all|terminal]] "
               "[-cache-max-mb <n>] <grammar-file|grammar-dir|corpus|"
               "corpus:<name>>...\n",
               Prog);
  return 2;
}

/// Strictly validated numeric flag value; reports and fails on input that
/// std::atoi would have silently read as 0.
bool parseFlagValue(const char *Flag, const char *Value, uint64_t Max,
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

/// Parses the seconds value of \p Flag; rejects text that is not a finite
/// number, which std::atof would turn into 0 (no deadline at all).
bool parseSecondsValue(const char *Flag, const char *Value, double &Out) {
  std::optional<double> V = parseFiniteDouble(Value);
  if (!V) {
    std::fprintf(stderr, "%s: '%s' is not a finite number of seconds\n", Flag,
                 Value);
    return false;
  }
  Out = *V;
  return true;
}

struct Job {
  std::string Name; // report/bench label
  std::string Text; // grammar text
};

struct JobResult {
  bool Ok = false;
  /// Failure stage, for the structured per-file failure record: "parse"
  /// (frontend diagnostics, counted under frontend.parse_failures) or
  /// "analysis" (an exception out of the pipeline).
  std::string FailStage;
  std::string Error;
  /// Parse failures only: the full caret-annotated diagnostic list.
  std::string DiagText;
  size_t Conflicts = 0;
  double WallMs = 0;
  bool Warm = false; // report set came from the cache
  long CacheHits = 0; // one per grammar with -cache: all served from `.rep`
  long CacheMisses = 0;
  std::string Rendered; // concatenated reports (deterministic bytes)
  /// Per-grammar metrics (only under -metrics): the snapshot for the
  /// aggregate merge / bench records, and its rendered text for the
  /// report file.
  MetricsSnapshot Metrics;
  std::string MetricsText;
};

/// Safe file stem for a grammar name ("corpus:SQL.1" -> "corpus_SQL.1").
std::string fileStem(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (C == '/' || C == ':' || C == '\\')
      C = '_';
  return Out;
}

JobResult analyzeOne(const Job &J, const FinderOptions &BaseOpts,
                     AutomatonKind Kind, const std::string &CacheDir,
                     bool CollectMetrics) {
  JobResult R;
  Stopwatch Timer;

  // One registry per grammar job: workers never share a registry, so the
  // per-grammar numbers are exact; main merges the snapshots afterwards.
  MetricsRegistry Registry;
  MetricsRegistry *Metrics = CollectMetrics ? &Registry : nullptr;

  // A grammar that fails to parse is a structured per-file failure (the
  // batch carries on); the caret-annotated diagnostics ride along for the
  // summary and the failure is counted under frontend.parse_failures.
  GrammarParseResult Parsed = parseGrammar(J.Text);
  if (Metrics && Parsed.WarningCount > 0)
    Metrics->add(metric::FrontendParseWarnings, Parsed.WarningCount);
  if (!Parsed.ok()) {
    if (Metrics) {
      Metrics->add(metric::FrontendParseFailures);
      R.Metrics = Metrics->snapshot();
    }
    R.FailStage = "parse";
    const Diagnostic *First = Parsed.firstError();
    R.Error = "grammar error: " +
              (First ? First->header() : std::string("no rules"));
    R.DiagText = Parsed.renderDiagnostics(J.Text);
    R.WallMs = Timer.seconds() * 1000.0;
    return R;
  }
  std::optional<Grammar> G = std::move(Parsed.G);

  cache::AnalysisSession Session(std::move(*G), Kind, nullptr, Metrics);

  FinderOptions Opts = BaseOpts;
  Opts.CachePath = CacheDir;
  Opts.Jobs = 1; // parallelism lives at the grammar level here
  Opts.Metrics = Metrics;
  CounterexampleFinder Finder(Session.table(), Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();

  R.Warm = Finder.cacheActivity().ReportsFromCache;
  if (!CacheDir.empty())
    ++(R.Warm ? R.CacheHits : R.CacheMisses);

  std::string Out;
  Out += "== " + J.Name + ": " + std::to_string(Reports.size()) +
         " conflict(s) ==\n";
  for (const ConflictReport &Rep : Reports)
    Out += Finder.render(Rep) + "\n";
  R.Rendered = std::move(Out);
  R.Conflicts = Reports.size();
  R.Ok = true;
  R.WallMs = Timer.seconds() * 1000.0;
  if (Metrics) {
    R.Metrics = Metrics->snapshot();
    R.MetricsText = R.Metrics.renderText();
  }
  return R;
}

//===----------------------------------------------------------------------===//
// -edit-loop replay mode
//===----------------------------------------------------------------------===//

/// One full pipeline run for the edit loop, from a built Grammar to the
/// rendered report bytes. Grammar building stays outside the clock so the
/// per-edit wall time measures exactly what the incremental layer can
/// save; AutomatonMs/SearchMs split that wall time into the two phases
/// the layer attacks separately (session advance vs conflict reuse).
struct EditRunResult {
  double WallMs = 0;
  double AutomatonMs = 0; ///< analysis + automaton + table + graph
  double SearchMs = 0;    ///< conflict search + rendering
  size_t Conflicts = 0;
  size_t Reused = 0;
  size_t Remapped = 0;
  size_t Recomputed = 0;
  std::string Rendered;
  /// The automaton-level equivalence witness: the incremental leg's
  /// session grammar and automaton must fingerprint exactly as the cold
  /// leg's (the parse table is a function of the two).
  Fingerprint128 GrammarKey, AutomatonKey;
};

void fingerprintRun(EditRunResult &R, const ParseTable &T) {
  const Automaton &M = T.automaton();
  R.GrammarKey = cache::grammarFingerprint(M.grammar(), M.kind());
  R.AutomatonKey = cache::automatonStructuralHash(M);
}

/// The cold reference leg: full rebuild, no cache of any kind.
EditRunResult runColdPipeline(Grammar G, const FinderOptions &BaseOpts,
                              AutomatonKind Kind) {
  EditRunResult R;
  Stopwatch Timer;
  cache::AnalysisSession Session(std::move(G), Kind, nullptr);
  R.AutomatonMs = Timer.seconds() * 1000.0;
  FinderOptions Opts = BaseOpts;
  Opts.CachePath.clear();
  Opts.Jobs = 1;
  Opts.Metrics = nullptr;
  CounterexampleFinder Finder(Session.table(), Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  std::string Out;
  for (const ConflictReport &Rep : Reports)
    Out += Finder.render(Rep) + "\n";
  R.Rendered = std::move(Out);
  R.Conflicts = Reports.size();
  R.Recomputed = Reports.size();
  R.WallMs = Timer.seconds() * 1000.0;
  R.SearchMs = R.WallMs - R.AutomatonMs;
  fingerprintRun(R, Session.table());
  return R;
}

/// The incremental leg: advance the persistent session (cold build plus
/// kernel-matched state maps when the delta permits) and search with the
/// conflict cache plus the session's remap handoff. \p Advance is
/// null on the baseline run (the session was just built cold).
EditRunResult runIncrPipeline(IncrementalSession &Sess,
                              const IncrementalSession::AdvanceStats *Advance,
                              double AdvanceMs, const FinderOptions &BaseOpts,
                              const std::string &CacheDir) {
  EditRunResult R;
  R.AutomatonMs = AdvanceMs;
  Stopwatch Timer;
  FinderOptions Opts = BaseOpts;
  Opts.CachePath = CacheDir;
  Opts.Jobs = 1;
  Opts.Metrics = nullptr;
  Opts.Incremental = Advance ? Sess.handoff() : nullptr;
  CounterexampleFinder Finder(Sess.table(), Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  std::string Out;
  for (const ConflictReport &Rep : Reports)
    Out += Finder.render(Rep) + "\n";
  R.Rendered = std::move(Out);
  R.Conflicts = Reports.size();
  R.Reused = Finder.cacheActivity().ConflictsReused;
  R.Remapped = Finder.cacheActivity().ConflictsRemapped;
  R.Recomputed = Finder.cacheActivity().ConflictsRecomputed;
  R.SearchMs = Timer.seconds() * 1000.0;
  R.WallMs = R.AutomatonMs + R.SearchMs;
  fingerprintRun(R, Sess.table());
  return R;
}

/// The replay loop: per grammar, a baseline run plus \p EditCount seeded
/// random edits over one persistent IncrementalSession; after each, the
/// incremental run (session automaton + conflict cache against
/// \p CacheDir) is compared against a cold run at both levels — rendered
/// report bytes and the automaton's fingerprints — a standing
/// differential harness for the whole incremental layer. \returns the
/// mismatch count.
size_t runEditLoop(const std::vector<Job> &Work, const FinderOptions &Opts,
                   AutomatonKind Kind, const std::string &CacheDir,
                   unsigned EditCount, uint64_t Seed,
                   const std::vector<EditKind> &Kinds,
                   std::vector<bench::BenchRecord> &Records) {
  size_t Mismatches = 0;
  for (const Job &J : Work) {
    GrammarParseResult Parsed = parseGrammar(J.Text);
    if (!Parsed.ok()) {
      const Diagnostic *First = Parsed.firstError();
      std::printf("%-24s SKIPPED (parse): %s\n", J.Name.c_str(),
                  First ? First->header().c_str() : "no rules");
      continue;
    }
    EditableGrammar Model = EditableGrammar::fromGrammar(*Parsed.G);
    EditRng Rng(Seed);
    std::optional<IncrementalSession> Sess;
    for (unsigned K = 0; K <= EditCount; ++K) {
      std::string EditLabel = "baseline";
      Stopwatch ParseClock;
      if (K > 0) {
        std::optional<AppliedEdit> E = applyRandomEdit(Model, Rng, Kinds);
        if (!E) {
          std::printf("%-24s #%u: no applicable edit, stopping\n",
                      J.Name.c_str(), K);
          break;
        }
        EditLabel = E->Detail;
      }
      std::string BuildError;
      std::optional<Grammar> Edited = Model.build(&BuildError);
      if (!Edited) {
        // applyRandomEdit only commits buildable models and the baseline
        // is a round-trip of a parsed grammar, so this is a real bug.
        std::printf("%-24s #%u FAILED: edited grammar does not build: %s\n",
                    J.Name.c_str(), K, BuildError.c_str());
        ++Mismatches;
        break;
      }
      double ParseMs = ParseClock.seconds() * 1000.0;

      // Incremental leg: advance the persistent session,
      // then search with the conflict cache and the remap handoff.
      Stopwatch AdvanceClock;
      const IncrementalSession::AdvanceStats *Advance = nullptr;
      if (K == 0)
        Sess.emplace(*Edited, Kind);
      else
        Advance = &Sess->advance(*Edited);
      double AdvanceMs = AdvanceClock.seconds() * 1000.0;
      EditRunResult Incr =
          runIncrPipeline(*Sess, Advance, AdvanceMs, Opts, CacheDir);
      EditRunResult Cold = runColdPipeline(std::move(*Edited), Opts, Kind);

      bool SameReports = Incr.Rendered == Cold.Rendered;
      bool SameAutomaton = Incr.GrammarKey == Cold.GrammarKey &&
                           Incr.AutomatonKey == Cold.AutomatonKey;
      if (!SameReports || !SameAutomaton)
        ++Mismatches;
      size_t Served = Incr.Reused + Incr.Remapped;
      std::printf("%-24s #%2u %-40s cold %8.1f ms  incr %8.1f ms  "
                  "reused %zu/%zu%s%s\n",
                  J.Name.c_str(), K, EditLabel.c_str(), Cold.WallMs,
                  Incr.WallMs, Served, Served + Incr.Recomputed,
                  SameReports ? "" : "  OUTPUT MISMATCH",
                  SameAutomaton ? "" : "  AUTOMATON MISMATCH");

      // Per-edit phase breakdown: where the wall time went, and how many
      // states kernel-matched the previous generation's. Grammar
      // building ("parse") sits outside both legs' clocks.
      std::string MatchNote;
      long StatesMatched = -1, StatesUnmatched = -1;
      if (Advance) {
        char Buf[160];
        if (Advance->Patched) {
          unsigned Total = Sess->automaton().numStates();
          StatesMatched = long(Advance->Patch.StatesReused);
          StatesUnmatched = long(Total) - StatesMatched;
          std::snprintf(Buf, sizeof(Buf), "matched %u/%u states",
                        Advance->Patch.StatesReused, Total);
        } else {
          // Leave the states fields unset (omitted from the record): an
          // advance without a state map has nothing to gate.
          std::snprintf(Buf, sizeof(Buf), "no state map: %s",
                        Advance->ColdReason.c_str());
        }
        MatchNote = Buf;
      } else {
        MatchNote = "initial build";
      }
      std::printf("%-24s      parse %6.1f ms  automaton %6.1f ms (%s)  "
                  "search %6.1f ms  remapped %zu\n",
                  "", ParseMs, Incr.AutomatonMs, MatchNote.c_str(),
                  Incr.SearchMs, Incr.Remapped);

      bench::BenchRecord Rec;
      Rec.Name = "edit-loop/" + J.Name + "/" + std::to_string(K);
      Rec.Grammar = J.Name;
      Rec.Conflicts = Incr.Conflicts;
      Rec.Jobs = 1;
      Rec.WallMsCold = Cold.WallMs;
      Rec.WallMsWarm = Incr.WallMs;
      // The reuse gate counts reports the incremental leg did not have to
      // recompute; a structurally remapped report is exactly that, so it
      // folds into conflicts_reused (and is broken out in
      // conflicts_remapped for the state-reuse gate).
      Rec.ConflictsReused = long(Served);
      Rec.ConflictsRecomputed = long(Incr.Recomputed);
      Rec.ConflictsRemapped = long(Incr.Remapped);
      Rec.StatesReused = StatesMatched;
      Rec.StatesRebuilt = StatesUnmatched;
      Rec.Edit = EditLabel;
      Records.push_back(Rec);
    }
  }
  return Mismatches;
}

/// The -cache-max-mb sweep (any mode): bounds the cache directory and
/// prints one machine-greppable summary line.
void gcSweep(const std::string &CacheDir, long long MaxMb) {
  if (MaxMb < 0 || CacheDir.empty())
    return;
  cache::AnalysisCache::GcStats S =
      cache::AnalysisCache(CacheDir).collectGarbage(uint64_t(MaxMb) * 1024 *
                                                    1024);
  std::printf("CACHE_GC scanned %llu file(s) / %llu byte(s), removed %llu "
              "file(s) / %llu byte(s)\n",
              (unsigned long long)S.ScannedFiles,
              (unsigned long long)S.ScannedBytes,
              (unsigned long long)S.RemovedFiles,
              (unsigned long long)S.RemovedBytes);
}

} // namespace

int main(int argc, char **argv) {
  FinderOptions Opts;
  std::vector<std::string> Sources;
  std::string CacheDir, OutDir;
  unsigned Jobs = 0;
  bool CollectMetrics = false;
  bool CumulativeSet = false;
  AutomatonKind Kind = AutomatonKind::Lalr1;
  unsigned EditLoop = 0;
  uint64_t EditSeed = 1;
  const std::vector<EditKind> *EditKinds = nullptr; // null = all kinds
  long long CacheMaxMb = -1;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-cache") {
      if (++I == argc)
        return usage(argv[0]);
      CacheDir = argv[I];
    } else if (Arg == "-out") {
      if (++I == argc)
        return usage(argv[0]);
      OutDir = argv[I];
    } else if (Arg == "-jobs") {
      uint64_t V;
      if (++I == argc || !parseFlagValue("-jobs", argv[I], UINT32_MAX, V))
        return usage(argv[0]);
      Jobs = unsigned(V);
    } else if (Arg == "-timeout") {
      if (++I == argc || !parseSecondsValue("-timeout", argv[I],
                                            Opts.ConflictTimeLimitSeconds))
        return usage(argv[0]);
    } else if (Arg == "-cumulative") {
      if (++I == argc || !parseSecondsValue("-cumulative", argv[I],
                                            Opts.CumulativeTimeLimitSeconds))
        return usage(argv[0]);
      CumulativeSet = true;
    } else if (Arg == "-steps") {
      uint64_t V;
      if (++I == argc || !parseFlagValue("-steps", argv[I], SIZE_MAX, V))
        return usage(argv[0]);
      Opts.MaxConfigurations = size_t(V);
    } else if (Arg == "-canonical") {
      Kind = AutomatonKind::Canonical;
    } else if (Arg == "-metrics") {
      CollectMetrics = true;
    } else if (Arg == "-edit-loop") {
      uint64_t V;
      if (++I == argc ||
          !parseFlagValue("-edit-loop", argv[I], UINT32_MAX, V))
        return usage(argv[0]);
      EditLoop = unsigned(V);
    } else if (Arg == "-edit-seed") {
      uint64_t V;
      if (++I == argc ||
          !parseFlagValue("-edit-seed", argv[I], UINT64_MAX, V))
        return usage(argv[0]);
      EditSeed = V;
    } else if (Arg == "-edit-kinds") {
      if (++I == argc)
        return usage(argv[0]);
      std::string Menu = argv[I];
      if (Menu == "all") {
        EditKinds = nullptr;
      } else if (Menu == "terminal") {
        EditKinds = &terminalEditKinds();
      } else {
        std::fprintf(stderr, "-edit-kinds takes 'all' or 'terminal'\n");
        return usage(argv[0]);
      }
    } else if (Arg == "-cache-max-mb") {
      uint64_t V;
      if (++I == argc ||
          !parseFlagValue("-cache-max-mb", argv[I], uint64_t(1) << 40, V))
        return usage(argv[0]);
      CacheMaxMb = (long long)V;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      Sources.push_back(Arg);
    }
  }
  if (Sources.empty())
    return usage(argv[0]);

  // Collect the work list from every positional source ("corpus",
  // "corpus:<name>", a grammar file, or a directory of them), sorted by
  // name for deterministic output.
  std::vector<Job> Work;
  for (const std::string &Source : Sources) {
    if (Source == "corpus") {
      for (const CorpusEntry &E : corpus())
        Work.push_back(Job{E.Name, E.Text});
    } else if (Source.rfind("corpus:", 0) == 0) {
      // A single built-in grammar ("corpus:Java.2"): the edit loop and the
      // incremental-smoke gate target specific corpus entries this way.
      std::string Name = Source.substr(7);
      const CorpusEntry *E = findCorpusEntry(Name);
      if (!E) {
        std::fprintf(stderr, "no corpus grammar named '%s'\n", Name.c_str());
        return 1;
      }
      Work.push_back(Job{E->Name, E->Text});
    } else {
      std::error_code Ec;
      if (std::filesystem::is_directory(Source, Ec)) {
        for (const auto &Entry :
             std::filesystem::directory_iterator(Source, Ec)) {
          if (!Entry.is_regular_file())
            continue;
          std::string Ext = Entry.path().extension().string();
          if (Ext != ".y" && Ext != ".cfg" && Ext != ".grammar")
            continue;
          std::ifstream In(Entry.path());
          std::ostringstream Buf;
          Buf << In.rdbuf();
          Work.push_back(Job{Entry.path().stem().string(), Buf.str()});
        }
      } else {
        std::ifstream In(Source);
        if (!In) {
          std::fprintf(stderr, "cannot open '%s'\n", Source.c_str());
          return 1;
        }
        std::ostringstream Buf;
        Buf << In.rdbuf();
        Work.push_back(
            Job{std::filesystem::path(Source).stem().string(), Buf.str()});
      }
    }
  }
  if (Work.empty()) {
    std::fprintf(stderr, "no grammars found\n");
    return 1;
  }
  std::sort(Work.begin(), Work.end(),
            [](const Job &A, const Job &B) { return A.Name < B.Name; });

  if (!OutDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(OutDir, Ec);
    if (Ec) {
      std::fprintf(stderr, "cannot create '%s'\n", OutDir.c_str());
      return 1;
    }
  }

  // Replay mode: serial by design (per-edit wall times are the product)
  // and self-checking (incremental vs cold byte diff).
  if (EditLoop > 0) {
    if (CacheDir.empty())
      std::fprintf(stderr, "note: -edit-loop without -cache measures cold "
                           "runs only (no conflict reuse)\n");
    // The edit loop measures conflict-level reuse, and a finite
    // *cumulative* budget disables that layer (it couples conflicts; see
    // DESIGN.md §5i), so unless the user explicitly asked for one, run
    // the loop with the cumulative clock off. Per-conflict -timeout and
    // -steps still bound every individual search.
    if (!CumulativeSet)
      Opts.CumulativeTimeLimitSeconds = 0;
    std::vector<bench::BenchRecord> Records;
    Stopwatch Total;
    size_t Mismatches =
        runEditLoop(Work, Opts, Kind, CacheDir, EditLoop, EditSeed,
                    EditKinds ? *EditKinds : allEditKinds(), Records);
    double TotalMs = Total.seconds() * 1000.0;
    bench::writeBenchRecords("batch_analyze", Records);
    gcSweep(CacheDir, CacheMaxMb);
    if (Mismatches > 0)
      std::printf("%zu incremental/cold MISMATCH(es)\n", Mismatches);
    std::printf("TOTAL_MS %.1f\n", TotalMs);
    return Mismatches == 0 ? 0 : 1;
  }

  // Shard grammars across the pool with an atomic dispenser (same shape
  // as CounterexampleFinder::examineAll's conflict-level pool).
  unsigned Workers = CounterexampleFinder::resolveJobs(Jobs);
  if (size_t(Workers) > Work.size())
    Workers = unsigned(Work.size());
  std::vector<JobResult> Results(Work.size());
  Stopwatch Total;
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
         I < Work.size();
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        Results[I] = analyzeOne(Work[I], Opts, Kind, CacheDir,
                                CollectMetrics);
      } catch (const std::exception &E) {
        Results[I].FailStage = "analysis";
        Results[I].Error = E.what();
      }
    }
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Workers - 1);
  for (unsigned T = 1; T < Workers; ++T) {
    try {
      Pool.emplace_back(Worker);
    } catch (const std::system_error &) {
      break; // degrade to fewer workers
    }
  }
  Worker();
  for (std::thread &T : Pool)
    T.join();
  double TotalMs = Total.seconds() * 1000.0;

  // Report, write output files, and accumulate bench records.
  std::vector<bench::BenchRecord> Records;
  size_t TotalConflicts = 0, Failures = 0, ParseFailures = 0;
  long TotalHits = 0, TotalMisses = 0;
  MetricsSnapshot Aggregate;
  for (size_t I = 0; I != Work.size(); ++I) {
    const JobResult &R = Results[I];
    if (!R.Ok) {
      ++Failures;
      if (R.FailStage == "parse")
        ++ParseFailures;
      std::printf("%-24s FAILED (%s): %s\n", Work[I].Name.c_str(),
                  R.FailStage.c_str(), R.Error.c_str());
      if (!R.DiagText.empty())
        std::fputs(R.DiagText.c_str(), stderr);
      if (CollectMetrics)
        Aggregate.merge(R.Metrics);
      // Structured per-file failure record: the run's BENCH json names
      // every file that failed and at which stage.
      bench::BenchRecord Rec;
      Rec.Name = "batch/FAILED-" + R.FailStage + "/" + Work[I].Name;
      Rec.Grammar = Work[I].Name;
      Rec.WallMsCold = R.WallMs;
      if (CollectMetrics)
        Rec.Metrics = R.Metrics.flatten();
      Records.push_back(Rec);
      continue;
    }
    TotalConflicts += R.Conflicts;
    TotalHits += R.CacheHits;
    TotalMisses += R.CacheMisses;
    std::printf("%-24s %3zu conflict(s)  %8.1f ms  %s", Work[I].Name.c_str(),
                R.Conflicts, R.WallMs, R.Warm ? "warm" : "cold");
    if (!CacheDir.empty())
      std::printf("  (cache %ld hit / %ld miss)", R.CacheHits,
                  R.CacheMisses);
    std::printf("\n");

    if (CollectMetrics)
      Aggregate.merge(R.Metrics);

    if (!OutDir.empty()) {
      std::string Path = OutDir + "/" + fileStem(Work[I].Name) + ".txt";
      std::ofstream OS(Path, std::ios::trunc | std::ios::binary);
      OS << R.Rendered;
      // Metrics carry wall times, so this section is opt-in: the default
      // report bytes stay deterministic for the cache-smoke byte diff.
      if (CollectMetrics)
        OS << "-- metrics --\n" << R.MetricsText;
      if (!OS.flush()) {
        std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
        ++Failures;
      }
    }

    bench::BenchRecord Rec;
    Rec.Name = "batch/" + Work[I].Name;
    Rec.Grammar = Work[I].Name;
    Rec.Conflicts = R.Conflicts;
    Rec.Jobs = Workers;
    (R.Warm ? Rec.WallMsWarm : Rec.WallMsCold) = R.WallMs;
    if (!CacheDir.empty()) {
      Rec.CacheHits = R.CacheHits;
      Rec.CacheMisses = R.CacheMisses;
    }
    if (CollectMetrics)
      Rec.Metrics = R.Metrics.flatten();
    Records.push_back(Rec);
  }

  bench::BenchRecord TotalRec;
  TotalRec.Name = "batch/TOTAL";
  for (const std::string &Source : Sources) {
    if (!TotalRec.Grammar.empty())
      TotalRec.Grammar += "+";
    TotalRec.Grammar += Source;
  }
  TotalRec.Conflicts = TotalConflicts;
  TotalRec.Jobs = Workers;
  // The whole run counts as warm only if every report set was served from
  // the cache.
  bool AllWarm = !CacheDir.empty() &&
                 std::all_of(Results.begin(), Results.end(),
                             [](const JobResult &R) { return R.Warm; });
  (AllWarm ? TotalRec.WallMsWarm : TotalRec.WallMsCold) = TotalMs;
  if (!CacheDir.empty()) {
    TotalRec.CacheHits = TotalHits;
    TotalRec.CacheMisses = TotalMisses;
  }
  if (CollectMetrics)
    TotalRec.Metrics = Aggregate.flatten();
  Records.push_back(TotalRec);
  bench::writeBenchRecords("batch_analyze", Records);

  std::printf("analyzed %zu grammar(s), %zu conflict(s), %u worker(s)",
              Work.size(), TotalConflicts, Workers);
  if (Failures > 0)
    std::printf(", %zu failure(s) (%zu parse)", Failures, ParseFailures);
  if (!CacheDir.empty())
    std::printf(", cache %ld hit / %ld miss", TotalHits, TotalMisses);
  if (CollectMetrics)
    std::printf("\n-- aggregate metrics --\n%s",
                Aggregate.renderText().c_str());
  std::printf("\nTOTAL_MS %.1f\n", TotalMs);
  gcSweep(CacheDir, CacheMaxMb);
  return Failures == 0 ? 0 : 1;
}
