//===- cexbench/cexbench.cpp - Deterministic-budget benchmark --*- C++ -*-===//
//
// Part of lalrcex.
//
// One closed-loop client in one process: runs a named workload for a
// given number of seconds, checks every output, and prints each metric by
// name and unit, ending with one JSON line. See README.md beside this file
// for the metric catalogue and why each workload exists.
//
//   cexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--root <repo checkout>] [--workdir <scratch dir>]
//
// Every search runs on deterministic budgets only (a fixed configuration
// count, no wall clock), so reports and their digest are a function of
// (code, workload, seed) and the timings measure work, not a deadline.
//
// The timed loop's end-to-end times are in reference-host time: wall time
// scaled by how fast a fixed probe ran around it (see HostClock), so that
// runs on a shared host compare. Wall figures are printed beside them.
//
// Layers are timed from outside, with spans around calls into public
// entry points. --trace 1 alternates untraced and traced passes: traced
// passes record the spans in a TraceRecorder (written as Chrome
// trace_event JSON) and attach a MetricsRegistry through the public
// FinderOptions / IncrementalSession / AnalysisSession arguments, which
// splits examineAll into its LSS, unifying, nonunifying and cache parts.
//
//===----------------------------------------------------------------------===//

#include "cache/AnalysisCache.h"
#include "corpus/Corpus.h"
#include "counterexample/CounterexampleFinder.h"
#include "counterexample/IncrementalSession.h"
#include "earley/DerivationCounter.h"
#include "grammar/GrammarEdit.h"
#include "grammar/GrammarParser.h"
#include "grammar/GrammarPrinter.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace lalrcex;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Mode { Cold, Edit, Warm };

struct Source {
  std::string Name; ///< "corpus:<entry>" or a path relative to the root
  unsigned EditRounds = 0; ///< edit-loop: rounds of all ten edit kinds
};

struct Workload {
  std::string Name;
  Mode M;
  size_t MaxConfigurations;
  std::vector<Source> Sources;
  /// One latency sample per pass (the whole input set as one batch)
  /// instead of one per grammar.
  bool BatchRequests = false;
};

std::vector<Source> corpusColdSources() {
  std::vector<Source> S;
  for (const CorpusEntry &E : corpus())
    if (E.Name != "worst-case-conflict")
      S.push_back({"corpus:" + E.Name});
  S.push_back({"examples/grammars/ansi_c.y"});
  return S;
}

std::vector<Workload> workloads() {
  std::vector<Source> Warm = corpusColdSources();
  Warm.push_back({"examples/grammars/sql.y"});
  // hard-search carries Java.2 besides sql.y and worst-case-conflict
  // because those two decide none of their conflicts at this budget;
  // Java.2's two hard conflicts sit among 270 decided ones, so
  // decided_ratio moves when the search gets better. Its requests are
  // batches: per grammar it has three unrelated latency modes (about 0.1,
  // 1 and 4 s), and the middle one, worst-case-conflict's single parallel
  // search, varied by a quarter between passes of one run.
  //
  // edit-loop edits Java.2 three rounds: its requests then fill the
  // middle of the latency distribution, so the median falls inside a
  // score of similar edits rather than near the edge of a cluster (with
  // two rounds it swung by a third between runs).
  return {
      {"corpus-cold", Mode::Cold, 5000, corpusColdSources()},
      {"hard-search",
       Mode::Cold,
       20000,
       {{"examples/grammars/sql.y"},
        {"corpus:worst-case-conflict"},
        {"corpus:Java.2"}},
       true},
      {"edit-loop",
       Mode::Edit,
       5000,
       {{"corpus:Java.2", 3}, {"examples/grammars/sql.y", 1}}},
      {"warm-serve", Mode::Warm, 5000, Warm},
  };
}

/// The workload's deterministic budgets with the default JobsInner auto
/// split. Jobs leaves one core to the rest of the machine (three workers
/// on 4 cores): with all four cores busy, throughput on a shared 4-core
/// VM was lower and varied twice as much from run to run.
FinderOptions finderOptions(const Workload &W) {
  FinderOptions O;
  O.ConflictTimeLimitSeconds = 0;
  O.CumulativeTimeLimitSeconds = 0;
  O.MaxConfigurations = W.MaxConfigurations;
  unsigned Cores = CounterexampleFinder::resolveJobs(0);
  O.Jobs = std::clamp(Cores - 1, 1u, 3u);
  O.JobsInner = 0;
  return O;
}

/// The determinism guard: a wall-clock budget makes reports depend on
/// machine load, so the timings would measure the deadline.
bool wallClockFree(const FinderOptions &O) {
  return O.ConflictTimeLimitSeconds == 0 && O.CumulativeTimeLimitSeconds == 0;
}

struct Input {
  std::string Name;
  std::string Text;
};

std::optional<Input> loadSource(const std::string &Root, const Source &S) {
  if (S.Name.rfind("corpus:", 0) == 0) {
    const CorpusEntry *E = findCorpusEntry(S.Name.substr(7));
    if (!E)
      return std::nullopt;
    return Input{S.Name, E->Text};
  }
  std::ifstream In(Root + "/" + S.Name, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Input{S.Name, Buf.str()};
}

/// Input validation for cold workloads: the grammar parses, and its
/// table is built once, so a bad input fails in set-up rather than in
/// the timed loop.
bool buildsTable(const std::string &Text) {
  GrammarParseResult P = parseGrammar(Text);
  if (!P.ok())
    return false;
  GrammarAnalysis A(*P.G);
  Automaton M(*P.G, A);
  (void)ParseTable(M);
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolation percentile (\p Q in [0, 1]).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// probeHostMs() on the reference host, a 4-core Xeon VM shared with other
/// tenants, about its time there in quiet periods.
constexpr double ReferenceProbeMs = 20.0;

/// How often the host is probed, at most, in wall time between requests.
constexpr double ProbeEveryMs = 250.0;

/// A fixed piece of work that shares no code with lalrcex but resembles
/// its inner loops: hash-table inserts and lookups, small allocations, a
/// sort.
void probeWork() {
  uint64_t X = 0x9e3779b97f4a7c15ull, Sum = 0;
  for (int Rep = 0; Rep != 4; ++Rep) {
    std::unordered_map<uint64_t, uint32_t> Map;
    std::vector<std::vector<uint32_t>> Lists;
    for (uint32_t I = 0; I != 20000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Map[X % 50000] += I;
      if (I % 8 == 0)
        Lists.emplace_back(size_t(X % 16 + 1), I);
    }
    std::vector<uint64_t> Keys;
    Keys.reserve(Map.size());
    for (const auto &KV : Map)
      Keys.push_back(KV.first * 2654435761u + KV.second);
    std::sort(Keys.begin(), Keys.end());
    for (uint64_t K : Keys) {
      auto It = Map.find(K % 50000);
      Sum += It == Map.end() ? 1 : It->second;
    }
    for (const auto &L : Lists)
      Sum += L.size();
  }
  volatile uint64_t Keep = Sum; // the work must not be optimised away
  (void)Keep;
}

/// probeWork() on \p Threads threads at once, the calling thread among
/// them, in ms until the last one finishes.
double probeHostMs(unsigned Threads) {
  Stopwatch Clock;
  std::vector<std::thread> Others;
  for (unsigned T = 1; T < Threads; ++T)
    Others.emplace_back(probeWork);
  probeWork();
  for (std::thread &T : Others)
    T.join();
  return Clock.milliseconds();
}

/// Converts wall time into reference-host time. On a shared VM the host's
/// speed shifts between regimes lasting seconds to minutes: the same pass
/// took 0.8 s in one half of a 30 s run and 1.2 s in the other, and mean
/// pass times of runs a minute apart differed by 1.8x. The thread that
/// sends the requests probes the host between requests, at most every
/// ProbeEveryMs, on as many threads as the searches use: a pass slows with
/// the busiest of the cores it runs on, and a probe on one thread missed
/// most of that. A request's wall time is scaled by ReferenceProbeMs over
/// the mean of the probes on either side of it. Probes run outside every
/// timed interval.
class HostClock {
public:
  explicit HostClock(unsigned Threads) : Threads(Threads) {
    probeHostMs(Threads); // the first probe in a process runs slow
    probe();
  }

  /// The segment a request starting now runs in. Call only between
  /// requests: it may probe first.
  size_t segment() {
    if (SinceProbe.milliseconds() >= ProbeEveryMs)
      probe();
    return ProbesMs.size() - 1;
  }

  /// Closes the last segment; call once, after the last request.
  void finish() { probe(); }

  /// \p WallMs spent in segment \p Segment, in reference-host ms.
  double referenceMs(double WallMs, size_t Segment) const {
    double Host = (ProbesMs[Segment] + ProbesMs[Segment + 1]) / 2;
    return WallMs * ReferenceProbeMs / Host;
  }

  unsigned threads() const { return Threads; }
  size_t probes() const { return ProbesMs.size(); }
  double medianProbeMs() const { return median(ProbesMs); }

private:
  void probe() {
    ProbesMs.push_back(probeHostMs(Threads));
    SinceProbe.restart();
  }

  unsigned Threads;
  std::vector<double> ProbesMs;
  Stopwatch SinceProbe;
};

/// One timed request.
struct Timed {
  double WallMs;
  size_t Segment; ///< the HostClock segment it ran in
  bool Sample;    ///< a latency sample (edit baselines are timed, not sampled)
};

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

/// Observability sinks of one pass; both null on untraced passes.
struct Sink {
  TraceRecorder *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;
};

struct Ambiguity {
  Symbol Root;
  std::vector<Symbol> Yield;
};

/// One request's output and the counts the metrics need.
struct Explained {
  std::string Rendered;
  size_t Reports = 0;
  size_t Decided = 0;       ///< UnifyingFound + NonunifyingComplete
  size_t FailedReports = 0; ///< Failed / Cancelled reports, parse failures
  size_t ReportedConfigurations = 0; ///< over every report, digest input
  size_t States = 0;
  bool FromCache = false; ///< whole report set served from a .rep blob
  /// Over reports computed by this call (all but whole-set cache hits).
  size_t Configurations = 0;
  size_t PeakBytes = 0;
  double WorkMs = 0;
  double BudgetMs = 0;
  size_t Reused = 0, Remapped = 0, Recomputed = 0;
  std::vector<Ambiguity> Ambiguities; ///< UnifyingFound examples
};

Explained parseFailure(const std::string &Name) {
  Explained E;
  E.Rendered = "== " + Name + ": parse failure ==\n";
  E.FailedReports = 1;
  return E;
}

bool stoppedByBudget(const ConflictReport &R) {
  return R.Failure && (R.Failure->K == FailureReason::StepLimit ||
                       R.Failure->K == FailureReason::MemoryLimit ||
                       R.Failure->K == FailureReason::Deadline);
}

/// Finder construction (graph build, restore or borrow), examineAll and
/// rendering: the part every request shares.
Explained explain(const ParseTable &T, FinderOptions O, const Sink &S,
                  const std::string &Name) {
  O.Metrics = S.Metrics;
  std::optional<CounterexampleFinder> F;
  {
    TraceSpan Span(S.Trace, "cex.graph");
    F.emplace(T, O);
  }
  std::vector<ConflictReport> Reports;
  {
    TraceSpan Span(S.Trace, "cex.examine");
    Reports = F->examineAll();
  }
  Explained E;
  {
    TraceSpan Span(S.Trace, "cex.render");
    E.Rendered = "== " + Name + ": " + std::to_string(Reports.size()) +
                 " conflict(s) ==\n";
    for (const ConflictReport &R : Reports)
      E.Rendered += F->render(R) + "\n";
  }
  const CacheActivity &CA = F->cacheActivity();
  E.FromCache = CA.ReportsFromCache;
  E.Reused = CA.ConflictsReused;
  E.Remapped = CA.ConflictsRemapped;
  E.Recomputed = CA.ConflictsRecomputed;
  E.States = T.automaton().numStates();
  for (const ConflictReport &R : Reports) {
    ++E.Reports;
    E.ReportedConfigurations += R.Configurations;
    if (R.Status == CounterexampleStatus::UnifyingFound ||
        R.Status == CounterexampleStatus::NonunifyingComplete)
      ++E.Decided;
    if (R.Status == CounterexampleStatus::Failed ||
        R.Status == CounterexampleStatus::Cancelled)
      ++E.FailedReports;
    if (R.Status == CounterexampleStatus::UnifyingFound && R.Example)
      E.Ambiguities.push_back({R.Example->Root, R.Example->yield1()});
    if (E.FromCache)
      continue;
    E.Configurations += R.Configurations;
    E.PeakBytes = std::max(E.PeakBytes, R.PeakBytes);
    (stoppedByBudget(R) ? E.BudgetMs : E.WorkMs) += R.Seconds * 1e3;
  }
  return E;
}

/// Text to rendered reports with no cache: parse, analysis, automaton,
/// table, then explain.
Explained analyzeCold(const Input &In, const FinderOptions &O,
                      const Sink &S) {
  TraceSpan Req(S.Trace, "request");
  GrammarParseResult P;
  {
    TraceSpan Span(S.Trace, "grammar.parse");
    P = parseGrammar(In.Text);
  }
  if (!P.ok())
    return parseFailure(In.Name);
  std::optional<GrammarAnalysis> A;
  {
    TraceSpan Span(S.Trace, "grammar.analysis");
    A.emplace(*P.G);
  }
  std::optional<Automaton> M;
  {
    TraceSpan Span(S.Trace, "lr.automaton");
    M.emplace(*P.G, *A);
  }
  std::optional<ParseTable> T;
  {
    TraceSpan Span(S.Trace, "lr.table");
    T.emplace(*M);
  }
  return explain(*T, O, S, In.Name);
}

/// Text to rendered reports through the persistent cache, as
/// batch_analyze runs it: AnalysisSession restores automaton + table from .art,
/// the finder restores the graph from .sig and the report set from .rep.
Explained analyzeCached(const Input &In, const FinderOptions &O,
                        const Sink &S) {
  TraceSpan Req(S.Trace, "request");
  GrammarParseResult P;
  {
    TraceSpan Span(S.Trace, "grammar.parse");
    P = parseGrammar(In.Text);
  }
  if (!P.ok())
    return parseFailure(In.Name);
  cache::AnalysisCache Cache(O.CachePath);
  std::optional<cache::AnalysisSession> Session;
  {
    TraceSpan Span(S.Trace, "cache.session");
    Session.emplace(std::move(*P.G), AutomatonKind::Lalr1, &Cache,
                    S.Metrics);
  }
  return explain(Session->table(), O, S, In.Name);
}

//===----------------------------------------------------------------------===//
// Edit streams
//===----------------------------------------------------------------------===//

/// One grammar's generations: the baseline text, then one text per edit,
/// each the baseline with that single edit applied.
struct EditStream {
  std::string Name;
  std::vector<std::string> Gens;
};

std::string generationName(const EditStream &S, size_t K) {
  return S.Name + "@" + std::to_string(K);
}

/// A fixed draw of edits over all ten kinds, stratified: each round draws
/// every kind once, so the stream has a known kind mix. Each edit applies
/// to the baseline, not to the previous edit: edits that compound drift
/// the grammar (conflict counts tripled within twenty edits on some
/// draws). The draw is fixed rather than taken from --seed because the
/// work in two draws of twenty edits differed by up to 40%; --seed
/// orders the edits instead (see runEditStream). Generations travel as
/// printed grammar text, so each request parses what an editor would
/// hand over.
std::optional<EditStream> makeEditStream(const Input &In, unsigned Rounds) {
  GrammarParseResult P = parseGrammar(In.Text);
  if (!P.ok())
    return std::nullopt;
  const EditableGrammar Base = EditableGrammar::fromGrammar(*P.G);
  EditRng Rng(fingerprintBytes(In.Name.data(), In.Name.size()).Lo);
  EditStream S{In.Name, {printGrammarText(*P.G)}};
  for (unsigned R = 0; R != Rounds; ++R) {
    std::vector<EditKind> Order = allEditKinds();
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.below(unsigned(I))]);
    for (EditKind K : Order) {
      // A kind without a target on this grammar is skipped.
      EditableGrammar Model = Base;
      if (!applyRandomEdit(Model, Rng, {K}))
        continue;
      std::optional<Grammar> G = Model.build();
      if (!G)
        return std::nullopt;
      S.Gens.push_back(printGrammarText(*G));
    }
  }
  return S;
}

/// What the incremental layer did over one pass's edits.
struct IncrCounts {
  size_t Advances = 0, Patched = 0;
  size_t SplicedStates = 0, States = 0;
  size_t Conflicts = 0, Reused = 0, Remapped = 0, Recomputed = 0;
};

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

struct Pass {
  std::vector<Timed> Requests; ///< and edit baselines; reverts are untimed
  std::vector<Explained> Out;  ///< canonical order
  IncrCounts Incr;
};

size_t totalReports(const Pass &P) {
  size_t N = 0;
  for (const Explained &E : P.Out)
    N += E.Reports;
  return N;
}

/// One grammar's edit stream through one IncrementalSession and a
/// cache-backed finder with the session's handoff. The baseline request
/// builds the session and seeds the cache; it is timed into the pass but
/// is not an edit, so it adds no latency sample. The edits follow in the
/// order \p Rng draws, and after each the session is advanced back to the
/// baseline, untimed, so every request is exactly one edit away from the
/// grammar the cache was seeded with. Outputs land in generation order.
void runEditStream(const EditStream &Stream, const FinderOptions &O,
                   const Sink &S, EditRng &Rng, HostClock &Host, Pass &P) {
  std::vector<size_t> Order(Stream.Gens.size());
  for (size_t K = 0; K != Order.size(); ++K)
    Order[K] = K;
  for (size_t I = Order.size(); I > 2; --I)
    std::swap(Order[I - 1], Order[1 + Rng.below(unsigned(I - 1))]);
  size_t Base = P.Out.size();
  P.Out.resize(Base + Stream.Gens.size());
  std::optional<IncrementalSession> Sess;
  std::optional<Grammar> Baseline;
  for (size_t K : Order) {
    std::string Name = generationName(Stream, K);
    size_t Segment = Host.segment();
    Stopwatch Clock;
    Explained E;
    {
      TraceSpan Req(S.Trace, K == 0 ? "edit.baseline" : "request");
      GrammarParseResult Parsed;
      {
        TraceSpan Span(S.Trace, "grammar.parse");
        Parsed = parseGrammar(Stream.Gens[K]);
      }
      if (!Parsed.ok()) {
        E = parseFailure(Name);
      } else if (K == 0) {
        Baseline = *Parsed.G;
        {
          TraceSpan Span(S.Trace, "incr.session");
          Sess.emplace(std::move(*Parsed.G), AutomatonKind::Lalr1,
                       S.Metrics);
        }
        E = explain(Sess->table(), O, S, Name);
      } else {
        const IncrementalSession::AdvanceStats *A;
        {
          TraceSpan Span(S.Trace, "incr.advance");
          A = &Sess->advance(std::move(*Parsed.G));
        }
        FinderOptions OI = O;
        OI.Incremental = Sess->handoff();
        E = explain(Sess->table(), OI, S, Name);
        ++P.Incr.Advances;
        P.Incr.States += Sess->automaton().numStates();
        if (A->Patched) {
          ++P.Incr.Patched;
          P.Incr.SplicedStates += A->Patch.StatesReused;
        }
        P.Incr.Conflicts += E.Reports;
        P.Incr.Reused += E.Reused;
        P.Incr.Remapped += E.Remapped;
        P.Incr.Recomputed += E.Recomputed;
      }
    }
    P.Requests.push_back({Clock.milliseconds(), Segment, K > 0});
    P.Out[Base + K] = std::move(E);
    if (!Sess)
      return; // the baseline failed; nothing to advance
    if (K > 0)
      Sess->advance(Grammar(*Baseline));
  }
}

struct Run {
  Workload W;
  FinderOptions Opts;
  uint64_t Seed = 0;
  std::vector<Input> Inputs;        // Cold / Warm
  std::vector<EditStream> Streams;  // Edit
  std::string CacheDir;             // Edit / Warm
};

/// One pass over the workload's inputs. Every pass sees the same inputs;
/// --seed, mixed with the pass index, only orders them (the edits within
/// a stream, or the grammars of a cold or warm pass). Outputs land in
/// canonical order, so the digest is the same for every seed.
Pass runPass(const Run &R, const Sink &S, HostClock &Host,
             unsigned PassIndex) {
  Pass P;
  EditRng Rng(R.Seed * 0x9e3779b97f4a7c15ull + PassIndex + 1);
  if (R.W.M == Mode::Edit) {
    FinderOptions O = R.Opts;
    O.CachePath = R.CacheDir;
    for (const EditStream &Stream : R.Streams)
      runEditStream(Stream, O, S, Rng, Host, P);
    return P;
  }
  std::vector<size_t> Order(R.Inputs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.below(unsigned(I))]);
  P.Out.resize(R.Inputs.size());
  FinderOptions O = R.Opts;
  if (R.W.M == Mode::Warm)
    O.CachePath = R.CacheDir;
  for (size_t I : Order) {
    size_t Segment = Host.segment();
    Stopwatch Clock;
    P.Out[I] = R.W.M == Mode::Warm ? analyzeCached(R.Inputs[I], O, S)
                                   : analyzeCold(R.Inputs[I], O, S);
    P.Requests.push_back({Clock.milliseconds(), Segment, true});
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Checks and statistics
//===----------------------------------------------------------------------===//

/// Operations attempted and failed: requests, Earley checks, and byte
/// comparisons.
struct Tally {
  size_t Attempted = 0;
  size_t Failed = 0;
  void add(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
};

/// Every unifying example of \p Amb must have two derivations under the
/// independent Earley counter.
void earleyCheck(const std::string &Text, const std::vector<Ambiguity> &Amb,
                 Tally &T) {
  if (Amb.empty())
    return;
  GrammarParseResult P = parseGrammar(Text);
  if (!P.ok()) {
    for (size_t I = 0; I != Amb.size(); ++I)
      T.add(false);
    return;
  }
  GrammarAnalysis A(*P.G);
  DerivationCounter D(*P.G, A);
  for (const Ambiguity &X : Amb)
    T.add(D.countDerivations(X.Root, X.Yield) >= 2);
}

void compareOutputs(const std::vector<Explained> &Got,
                    const std::vector<Explained> &Want, Tally &T) {
  if (Got.size() != Want.size()) {
    T.add(false);
    return;
  }
  for (size_t I = 0; I != Got.size(); ++I)
    T.add(Got[I].Rendered == Want[I].Rendered);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double dirMb(const std::string &Dir) {
  std::error_code Ec;
  uint64_t Bytes = 0;
  for (fs::recursive_directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec))
    if (It->is_regular_file(Ec))
      Bytes += It->file_size(Ec);
  return double(Bytes) / (1024.0 * 1024.0);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Self time per span name in ms: each span's duration minus the part
/// its child spans cover.
std::map<std::string, double> selfTimesMs(const TraceRecorder &Rec) {
  std::vector<TraceRecorder::Event> Ev = Rec.events();
  std::unordered_map<uint64_t, size_t> ById;
  for (size_t I = 0; I != Ev.size(); ++I)
    ById[Ev[I].Id] = I;
  std::vector<uint64_t> ChildNs(Ev.size(), 0);
  for (const TraceRecorder::Event &E : Ev) {
    auto It = ById.find(E.Parent);
    if (E.Parent && It != ById.end())
      ChildNs[It->second] += E.DurNs;
  }
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Ev.size(); ++I)
    Self[Ev[I].Name] +=
        double(Ev[I].DurNs - std::min(ChildNs[I], Ev[I].DurNs)) / 1e6;
  return Self;
}

/// The figures of a run's timed loop.
struct Timings {
  double P50 = 0, P90 = 0, ConflictsPerS = 0;
  double MinPassMs = 0, MedianPassMs = 0, MaxPassMs = 0;
  double TraceOverheadPct = 0;
  size_t Samples = 0; ///< latency samples behind P50 and P90
};

/// The figures over every timed request, in reference-host time, or in
/// wall time when \p Host is null.
Timings timings(const std::vector<std::vector<Timed>> &Untraced,
                const std::vector<std::vector<Timed>> &Traced,
                size_t UntracedReports, bool BatchRequests,
                const HostClock *Host) {
  auto ms = [&](const Timed &X) {
    return Host ? Host->referenceMs(X.WallMs, X.Segment) : X.WallMs;
  };
  auto passMs = [&](const std::vector<Timed> &Pass) {
    double Ms = 0;
    for (const Timed &X : Pass)
      Ms += ms(X);
    return Ms;
  };
  Timings Out;
  std::vector<double> Requests, PassMs;
  for (const std::vector<Timed> &Pass : Untraced) {
    PassMs.push_back(passMs(Pass));
    if (BatchRequests)
      Requests.push_back(PassMs.back());
    else
      for (const Timed &X : Pass)
        if (X.Sample)
          Requests.push_back(ms(X));
  }
  double UntracedMs = 0, TracedMs = 0;
  for (double Ms : PassMs)
    UntracedMs += Ms;
  for (const std::vector<Timed> &Pass : Traced)
    TracedMs += passMs(Pass);
  Out.P50 = percentile(Requests, 0.5);
  Out.P90 = percentile(Requests, 0.9);
  Out.Samples = Requests.size();
  Out.ConflictsPerS = ratio(double(UntracedReports), UntracedMs / 1e3);
  Out.MinPassMs = percentile(PassMs, 0);
  Out.MedianPassMs = median(PassMs);
  Out.MaxPassMs = percentile(PassMs, 1);
  if (!Traced.empty())
    Out.TraceOverheadPct =
        (ratio(TracedMs / double(Traced.size()),
               UntracedMs / double(Untraced.size())) -
         1.0) *
        100.0;
  return Out;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string jsonResult(bool Correct, const Tally &T,
                       const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(T.Attempted);
  Out += ", \"failed\": " + std::to_string(T.Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return Out + "}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: cexbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--root <dir>] [--workdir <dir>]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, Root = ".", WorkDir = ".bench_build/run";
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Value = argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      Trace = Value == "1";
    else if (Flag == "--root")
      Root = Value;
    else if (Flag == "--workdir")
      WorkDir = Value;
    else
      return usage();
  }
  if (argc % 2 == 0 || WorkloadName.empty() || !(Seconds > 0))
    return usage();

  std::vector<Workload> All = workloads();
  for (const Workload &W : All) {
    if (!wallClockFree(finderOptions(W))) {
      std::fprintf(stderr,
                   "cexbench: workload %s has a wall-clock budget; "
                   "refusing to run\n",
                   W.Name.c_str());
      return 2;
    }
  }
  auto WIt = std::find_if(All.begin(), All.end(), [&](const Workload &W) {
    return W.Name == WorkloadName;
  });
  if (WIt == All.end()) {
    std::fprintf(stderr, "cexbench: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return usage();
  }

  Run R;
  R.W = *WIt;
  R.Opts = finderOptions(R.W);
  R.Seed = Seed;
  R.CacheDir = WorkDir + "/cache";
  std::error_code Ec;
  fs::create_directories(WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "cexbench: cannot create %s\n", WorkDir.c_str());
    return 2;
  }

  // Set-up, repeated so setup_s is a median: load the grammar texts, then
  // per mode validate them (cold: each must parse and build its table),
  // generate the edit streams (edit), or prime a fresh cache cold (warm)
  // — whose output is the reference the warm passes must reproduce byte
  // for byte.
  //
  // setup_s stays in wall time: its few short repetitions run on one thread
  // and cannot average out the probe's own jitter (scaled, its spread over
  // five runs was 0.45; in wall time 0.14).
  Tally T;
  std::vector<double> SetupS;
  std::vector<Explained> WarmReference;
  const unsigned SetupReps = R.W.M == Mode::Warm ? 3 : 5;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Stopwatch Clock;
    R.Inputs.clear();
    R.Streams.clear();
    for (const Source &S : R.W.Sources) {
      std::optional<Input> In = loadSource(Root, S);
      if (!In) {
        std::fprintf(stderr, "cexbench: cannot load %s under %s\n",
                     S.Name.c_str(), Root.c_str());
        return 2;
      }
      if (R.W.M == Mode::Edit) {
        std::optional<EditStream> Stream =
            makeEditStream(*In, S.EditRounds);
        if (!Stream) {
          std::fprintf(stderr, "cexbench: no edit stream for %s\n",
                       S.Name.c_str());
          return 2;
        }
        R.Streams.push_back(std::move(*Stream));
      } else if (R.W.M == Mode::Cold && !buildsTable(In->Text)) {
        std::fprintf(stderr, "cexbench: %s does not parse\n",
                     S.Name.c_str());
        return 2;
      }
      R.Inputs.push_back(std::move(*In));
    }
    if (R.W.M == Mode::Warm) {
      fs::remove_all(R.CacheDir, Ec);
      FinderOptions O = R.Opts;
      O.CachePath = R.CacheDir;
      WarmReference.clear();
      for (const Input &In : R.Inputs)
        WarmReference.push_back(analyzeCached(In, O, Sink{}));
    }
    SetupS.push_back(Clock.seconds());
  }

  // The timed loop: whole passes until --seconds have elapsed. Under
  // --trace 1, odd passes are traced, so the untraced/traced difference
  // is measured on interleaved passes.
  std::optional<TraceRecorder> Rec;
  MetricsRegistry Registry;
  if (Trace)
    Rec.emplace();
  HostClock Host(R.Opts.Jobs);
  Stopwatch Wall;
  Pass First;
  std::vector<std::vector<Timed>> UntracedPasses, TracedPasses;
  double TracedWorkMs = 0, TracedBudgetMs = 0;
  size_t UntracedReports = 0;
  for (unsigned PassIndex = 0;; ++PassIndex) {
    bool IsTraced = Trace && PassIndex % 2 == 1;
    Sink S = IsTraced ? Sink{&*Rec, &Registry} : Sink{};
    if (R.W.M == Mode::Edit)
      fs::remove_all(R.CacheDir, Ec); // every pass edits from a cold cache
    Pass P = runPass(R, S, Host, PassIndex);

    for (const Explained &E : P.Out)
      T.add(E.FailedReports == 0);
    if (PassIndex == 0) {
      if (R.W.M == Mode::Warm)
        compareOutputs(P.Out, WarmReference, T);
    } else {
      compareOutputs(P.Out, First.Out, T);
    }
    if (IsTraced) {
      TracedPasses.push_back(P.Requests);
      for (const Explained &E : P.Out) {
        TracedWorkMs += E.WorkMs;
        TracedBudgetMs += E.BudgetMs;
      }
    } else {
      UntracedPasses.push_back(P.Requests);
      UntracedReports += totalReports(P);
    }
    if (PassIndex == 0)
      First = std::move(P);
    if (Wall.seconds() >= Seconds && (!Trace || !TracedPasses.empty()))
      break;
  }
  Host.finish();
  double LoopS = Wall.seconds();

  // Output checks, outside the timed loop.
  Stopwatch CheckClock;
  if (R.W.M == Mode::Edit) {
    // Each generation's incremental result against a cold analysis of the
    // same text (no cache, no session).
    std::vector<Explained> Cold;
    std::vector<const std::string *> Texts;
    for (const EditStream &Stream : R.Streams)
      for (size_t K = 0; K != Stream.Gens.size(); ++K) {
        Cold.push_back(analyzeCold({generationName(Stream, K), Stream.Gens[K]},
                                   R.Opts, Sink{}));
        Texts.push_back(&Stream.Gens[K]);
      }
    compareOutputs(First.Out, Cold, T);
    for (size_t I = 0; I != Cold.size(); ++I)
      earleyCheck(*Texts[I], Cold[I].Ambiguities, T);
  } else {
    const std::vector<Explained> &Ref =
        R.W.M == Mode::Warm ? WarmReference : First.Out;
    for (size_t I = 0; I != R.Inputs.size() && I != Ref.size(); ++I)
      earleyCheck(R.Inputs[I].Text, Ref[I].Ambiguities, T);
  }

  double CheckS = CheckClock.seconds();

  // The determinism guard's digest: rendered bytes of the first pass in
  // canonical order plus total configurations. Same build, workload and
  // seed must print the same line.
  StableHasher H;
  size_t Reports = 0, Decided = 0, ReportedConfigs = 0, Configs = 0,
         States = 0, PeakBytes = 0;
  for (const Explained &E : First.Out) {
    H.addString(E.Rendered);
    Reports += E.Reports;
    Decided += E.Decided;
    ReportedConfigs += E.ReportedConfigurations;
    Configs += E.Configurations;
    States += E.States;
    PeakBytes = std::max(PeakBytes, E.PeakBytes);
  }
  H.addU64(ReportedConfigs);
  std::printf("workload %s seed %llu jobs %u max-configurations %zu\n",
              R.W.Name.c_str(), (unsigned long long)Seed, R.Opts.Jobs,
              R.Opts.MaxConfigurations);
  std::printf("digest %s reports %zu decided %zu configurations %zu\n",
              H.finish().hex().c_str(), Reports, Decided, ReportedConfigs);
  Timings Ref = timings(UntracedPasses, TracedPasses, UntracedReports,
                        R.W.BatchRequests, &Host);
  Timings WallT = timings(UntracedPasses, TracedPasses, UntracedReports,
                          R.W.BatchRequests, nullptr);
  std::printf("passes %zu (%zu traced), %zu untraced requests, loop %.1f s, "
              "checks %.1f s\n",
              UntracedPasses.size() + TracedPasses.size(), TracedPasses.size(),
              Ref.Samples, LoopS, CheckS);
  std::printf("host probe median %.2f ms on %u threads over %zu probes "
              "(reference %.1f ms)\n",
              Host.medianProbeMs(), Host.threads(), Host.probes(),
              ReferenceProbeMs);
  for (const Timings *X : {&Ref, &WallT})
    std::printf("%s: untraced pass ms min %.1f median %.1f max %.1f; "
                "request_ms.p50 %.3f p90 %.3f conflicts_per_s %.2f\n",
                X == &Ref ? "reference" : "wall", X->MinPassMs,
                X->MedianPassMs, X->MaxPassMs, X->P50, X->P90,
                X->ConflictsPerS);

  std::vector<Metric> EndToEnd = {
      {"setup_s", median(SetupS), "s"},
      {"request_ms.p50", Ref.P50, "ms"},
      {"request_ms.p90", Ref.P90, "ms"},
      {"conflicts_per_s", Ref.ConflictsPerS, "1/s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"decided_ratio", ratio(double(Decided), double(Reports)), "ratio"},
  };

  std::vector<Metric> PerLayer;
  if (Trace) {
    std::map<std::string, double> Self = selfTimesMs(*Rec);
    MetricsSnapshot Snap = Registry.snapshot();
    double TP = double(TracedPasses.size());
    auto perPass = [&](const char *Span) { return Self[Span] / TP; };
    auto histMs = [&](metric::Hist Id) {
      return double(Snap.hist(Id).Sum) / 1e6 / TP;
    };
    double ExamineMs = Self["cex.examine"];
    double Hits = double(Snap.counter(metric::CacheHits));
    double Probes = Hits + double(Snap.counter(metric::CacheMisses));
    const IncrCounts &I = First.Incr;
    bool Cached = R.W.M != Mode::Cold;
    PerLayer = {
        {"grammar.parse_ms", perPass("grammar.parse"), "ms"},
        {"grammar.analysis_ms", perPass("grammar.analysis"), "ms"},
        {"lr.automaton_ms", perPass("lr.automaton"), "ms"},
        {"lr.table_ms", perPass("lr.table"), "ms"},
        {"lr.states", double(States), "count"},
        {"cex.graph_ms", perPass("cex.graph"), "ms"},
        {"cex.examine_ms", perPass("cex.examine"), "ms"},
        {"cex.render_ms", perPass("cex.render"), "ms"},
        {"cex.lss_ms", histMs(metric::TimeLssNs), "ms"},
        {"cex.unifying_ms", histMs(metric::TimeUnifyingNs), "ms"},
        {"cex.nonunifying_ms", histMs(metric::TimeNonunifyingNs), "ms"},
        {"cex.configurations", double(Configs), "count"},
        {"cex.us_per_configuration",
         ratio(ExamineMs * 1e3, double(Configs) * TP), "us"},
        {"cex.search_peak_mb", double(PeakBytes) / (1024.0 * 1024.0), "MB"},
        {"cex.work_ms", TracedWorkMs / TP, "ms"},
        {"cex.budget_ms", TracedBudgetMs / TP, "ms"},
        {"cex.worker_busy_ratio",
         ratio(double(Snap.hist(metric::TimeWorkerBusyNs).Sum) / 1e6,
               double(R.Opts.Jobs) * ExamineMs),
         "ratio"},
        {"cex.tasks_stolen",
         double(Snap.counter(metric::SearchTasksStolen)) / TP, "count"},
        {"cex.bucket_barriers",
         double(Snap.counter(metric::SearchBucketBarriers)) / TP, "count"},
        {"cache.session_ms", perPass("cache.session"), "ms"},
        {"cache.load_ms", histMs(metric::TimeCacheLoadNs), "ms"},
        {"cache.store_ms", histMs(metric::TimeCacheStoreNs), "ms"},
        {"cache.hit_ratio", ratio(Hits, Probes), "ratio"},
        {"cache.dir_mb", Cached ? dirMb(R.CacheDir) : 0.0, "MB"},
        {"incr.session_ms", perPass("incr.session"), "ms"},
        {"incr.advance_ms", perPass("incr.advance"), "ms"},
        {"incr.patched_ratio", ratio(double(I.Patched), double(I.Advances)),
         "ratio"},
        {"incr.state_splice_ratio",
         ratio(double(I.SplicedStates), double(I.States)), "ratio"},
        {"incr.reuse_ratio",
         ratio(double(I.Reused + I.Remapped), double(I.Conflicts)), "ratio"},
        {"incr.recomputed", double(I.Recomputed), "count"},
        {"bench.trace_overhead_pct",
         Ref.TraceOverheadPct, "%"},
        {"failed_ratio", ratio(double(T.Failed), double(T.Attempted)),
         "ratio"},
    };
    std::string TracePath = WorkDir + "/trace.json";
    if (!Rec->writeChromeJson(TracePath))
      std::fprintf(stderr, "cexbench: cannot write %s\n", TracePath.c_str());
    if (Rec->dropped())
      std::printf("warning: %llu trace span(s) dropped\n",
                  (unsigned long long)Rec->dropped());
  }

  for (const Metric &M : EndToEnd)
    std::printf("%-26s %14.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  if (!Trace)
    std::printf("%-26s %14.6f ratio\n", "failed_ratio",
                ratio(double(T.Failed), double(T.Attempted)));
  std::printf("operations %zu attempted, %zu failed\n", T.Attempted,
              T.Failed);
  for (const Metric &M : PerLayer)
    std::printf("%-26s %14.6f %s\n", M.Name.c_str(), M.Value, M.Unit);

  bool Correct = T.Failed == 0;
  std::printf("%s\n", jsonResult(Correct, T, Trace ? PerLayer : EndToEnd)
                          .c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
