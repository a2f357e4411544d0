//===- counterexample/CounterexampleFinder.h - Orchestration ---*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing entry point: given a parse table, explain every reported
/// conflict with a counterexample.
///
/// Mirrors the paper's implementation strategy (§6): build the state-item
/// lookup tables once per grammar; per conflict, compute the shortest
/// lookahead-sensitive path, run the unifying search under a per-conflict
/// time budget (default 5 s), and fall back to a nonunifying counterexample
/// when the search exhausts or times out. A cumulative budget (default
/// 2 min) switches to nonunifying-only mode for the remaining conflicts.
/// Conflicts resolved by precedence/associativity are not examined.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_COUNTEREXAMPLE_COUNTEREXAMPLEFINDER_H
#define LALRCEX_COUNTEREXAMPLE_COUNTEREXAMPLEFINDER_H

#include "counterexample/Counterexample.h"
#include "counterexample/LookaheadSensitiveSearch.h"
#include "counterexample/NonunifyingBuilder.h"
#include "counterexample/StateItemGraph.h"
#include "counterexample/UnifyingSearch.h"
#include "lr/ParseTable.h"
#include "support/Budget.h"

#include <optional>
#include <string>
#include <vector>

namespace lalrcex {

struct IncrementalHandoff;

/// Budgets and modes for counterexample construction.
struct FinderOptions {
  /// Per-conflict wall-clock budget for the unifying search (paper: 5 s).
  /// Zero disables the deadline; negative values are already expired
  /// (deterministic timeouts for tests).
  double ConflictTimeLimitSeconds = 5.0;
  /// Cumulative wall-clock budget across examineAll (paper: 2 min);
  /// afterwards only nonunifying counterexamples are constructed.
  double CumulativeTimeLimitSeconds = 120.0;
  /// Allow reverse transitions off the shortest lookahead-sensitive path
  /// (the paper's -extendedsearch flag).
  bool ExtendedSearch = false;
  /// Disable the unifying search entirely (nonunifying-only mode).
  bool UnifyingEnabled = true;
  /// Deterministic step budget per unifying search (configurations).
  size_t MaxConfigurations = 2'000'000;
  /// Deterministic cumulative step budget across examineAll; once spent,
  /// remaining conflicts degrade to nonunifying counterexamples.
  size_t CumulativeMaxConfigurations = ResourceLimits::Unlimited;
  /// Byte budget for each unifying search's accounted memory.
  size_t MemoryLimitBytes = ResourceLimits::Unlimited;
  /// Cooperative cancellation: trip from another thread to stop all
  /// remaining work; every conflict still gets a (bare) report.
  CancellationToken Cancellation;
  /// Configurations between wall-clock / cancellation polls.
  unsigned WallPollPeriod = 64;
  /// Worker threads for examineAll (0 = hardware concurrency). Conflicts
  /// are examined concurrently over shared read-only tables and one
  /// shared cumulative guard; reports come back in conflict order and the
  /// deterministic report fields are identical for every job count. 1
  /// preserves strictly serial examination.
  unsigned Jobs = 0;
  /// Intra-conflict workers for each unifying search — the second level
  /// of the two-level scheduler (DESIGN.md 5h): Jobs spreads conflicts
  /// across workers, JobsInner shards the active cost bucket inside one
  /// search across speculation workers with work stealing. 0 (the
  /// default) splits the resolved Jobs budget evenly across the
  /// conflict-level workers, so a table with fewer conflicts than cores
  /// still uses the whole machine. 1 disables intra-conflict
  /// parallelism. Reports are byte-identical for every setting; like
  /// Jobs, never part of the cache key.
  unsigned JobsInner = 0;
  /// Collect per-conflict LssStats (pool occupancy, union-cache hit rate,
  /// dominance-check counts) into ConflictReport::Lss. Observability
  /// only: never changes reports or rendering.
  bool CollectLssStats = false;
  /// Directory of the persistent analysis cache (cache/AnalysisCache.h);
  /// empty disables caching. The constructor restores the state-item
  /// graph from it and examineAll() serves warm report sets that are
  /// byte-identical to a cold run; damaged or stale blobs degrade to a
  /// cold recompute recorded in cacheActivity(), never a crash. Not part
  /// of the cache key: two finders differing only in CachePath (or Jobs)
  /// produce identical reports.
  std::string CachePath;
  /// Incremental handoff from an IncrementalSession, or null
  /// (the default, a standalone run). When set with a usable generation
  /// pair, the finder (a) borrows the session's already-built state-item
  /// graph instead of building or restoring its own, and (b) extends the
  /// fine-grained warm path: a conflict whose per-conflict key misses
  /// (every structural edit moves it) is probed under its *previous*
  /// generation key and re-served remapped when the stored touched set
  /// verifies — see IncrementalSession.h. Like CachePath, never part of
  /// the cache key; remapped reports are byte-identical to recomputes.
  /// The handoff (and the session behind it) must outlive the finder.
  const IncrementalHandoff *Incremental = nullptr;
  /// Pipeline-wide metrics sink (support/Metrics.h). When null (the
  /// default) every instrumentation site reduces to a pointer test and no
  /// clock is read; when set, per-phase wall times and search-effort
  /// counters for every stage (lss.*, unifying.*, cache.*, examine.*,
  /// guard.trips.*) accumulate into the registry. Observability only:
  /// never part of the cache key and never changes reports.
  MetricsRegistry *Metrics = nullptr;
  /// Trace-span sink (support/Trace.h): phase spans with parent linkage
  /// and conflict ids, exportable as Chrome trace_event JSON. Same
  /// zero-cost-when-null and not-part-of-the-key contract as Metrics.
  TraceRecorder *Trace = nullptr;
};

/// How a conflict was explained; matches the Table 1 columns.
enum class CounterexampleStatus {
  UnifyingFound,       ///< "# unif": an ambiguity was demonstrated
  NonunifyingComplete, ///< "# nonunif": the search space was exhausted, so
                       ///< no unifying counterexample exists (within the
                       ///< default restriction)
  NonunifyingTimeout,  ///< "# time out": a budget (time, steps, or memory)
                       ///< was exceeded; nonunifying counterexample
                       ///< reported instead (see Failure for which budget)
  Cancelled,           ///< cancellation tripped; bare item-pair report
  Failed,              ///< recoverable internal failure; Example, when
                       ///< present, is a best-effort nonunifying fallback
};

/// Structured record of why a report was degraded: which stage of the
/// pipeline gave up and for what reason.
struct FailureReason {
  enum Kind : uint8_t {
    InternalError,     ///< malformed search state (recovered SearchError)
    AllocationFailure, ///< std::bad_alloc caught at a search boundary
    StepLimit,         ///< deterministic step budget exhausted
    MemoryLimit,       ///< accounted byte budget exhausted
    Deadline,          ///< wall-clock budget exhausted
    Cancelled,         ///< cancellation token tripped
    PathUnavailable,   ///< no shortest lookahead-sensitive path / bridge
  };
  Kind K = InternalError;
  /// Pipeline stage that degraded: "conflict-setup", "lss-path",
  /// "unifying-search", "nonunifying-builder", "cumulative-budget".
  std::string Stage;
  /// Human-readable detail (e.g. the recovered error message).
  std::string Detail;

  /// Short name of \p K for diagnostics.
  static const char *kindName(Kind K);
};

/// Everything known about one explained conflict.
struct ConflictReport {
  Conflict TheConflict;
  CounterexampleStatus Status = CounterexampleStatus::Failed;
  std::optional<Counterexample> Example;
  /// The shift item shown in reports (invalid item for reduce/reduce).
  Item ShiftItem;
  double Seconds = 0;
  size_t Configurations = 0;
  /// Peak accounted memory of the unifying search.
  size_t PeakBytes = 0;
  /// How the unifying search ended, when it ran.
  std::optional<UnifyingStatus> UnifyingOutcome;
  /// Why the report was degraded (set for every status except
  /// UnifyingFound / NonunifyingComplete).
  std::optional<FailureReason> Failure;
  /// Lookahead-sensitive search counters; only populated when
  /// FinderOptions::CollectLssStats is set. Not rendered in reports.
  std::optional<LssStats> Lss;
};

/// What the persistent analysis cache did for one finder; all-false when
/// FinderOptions::CachePath is empty.
struct CacheActivity {
  /// The state-item graph was restored instead of rebuilt.
  bool GraphFromCache = false;
  /// The last examineAll() returned a cached report set verbatim.
  bool ReportsFromCache = false;
  /// Conflict-level reuse in the last examineAll(): conflicts whose
  /// report was re-served from a per-conflict blob (the whole-set key
  /// missed but the conflict's fine-grained key hit), and conflicts that
  /// were examined cold. Reused + Recomputed always equals the reported
  /// conflict count when the whole-set key missed and the fine-grained
  /// layer was eligible; both stay 0 on a whole-set hit, and when a
  /// finite *cumulative* budget disables conflict-level reuse (a binding
  /// cumulative budget couples conflicts, so per-conflict reports would
  /// no longer be pure functions of their key).
  size_t ConflictsReused = 0;
  size_t ConflictsRecomputed = 0;
  /// Conflicts re-served through the incremental remap layer in the last
  /// examineAll(): their fine-grained key missed (a structural edit moved
  /// it) but the previous generation's blob was found, its touched set
  /// verified, and the report rewritten under the edit's id maps. Always
  /// 0 without FinderOptions::Incremental. Reused + Remapped + Recomputed
  /// covers all conflicts when the fine-grained layer was eligible.
  size_t ConflictsRemapped = 0;
  /// First damaged/unreadable blob encountered (stage "cache-load");
  /// the affected artifact was recomputed cold. A plain miss is not a
  /// degradation and is not recorded.
  std::optional<FailureReason> Degradation;
};

/// Constructs counterexamples for the conflicts of one parse table.
class CounterexampleFinder {
public:
  explicit CounterexampleFinder(const ParseTable &Table,
                                FinderOptions Opts = FinderOptions());

  const StateItemGraph &graph() const { return Graph; }
  const FinderOptions &options() const { return Opts; }

  /// How FinderOptions::CachePath participated so far (graph restore at
  /// construction, report reuse per examineAll call, degradations).
  const CacheActivity &cacheActivity() const { return Cache; }

  /// Explains a single conflict. Never throws: every failure mode
  /// degrades down the ladder (unifying -> nonunifying -> bare item-pair
  /// report) and is recorded in ConflictReport::Failure.
  ConflictReport examine(const Conflict &C);

  /// Explains every reported (precedence-unresolved) conflict, charging
  /// one shared cumulative guard (wall clock, steps, cancellation).
  /// Always returns exactly one report per reported conflict, in conflict
  /// order. With FinderOptions::Jobs != 1, conflicts are examined
  /// concurrently on a worker pool; the state-item graph and analysis
  /// tables are shared read-only and the cumulative guard is charged
  /// atomically, so the budget caps the whole run, not each worker.
  std::vector<ConflictReport> examineAll();

  /// The worker count examineAll will use for \p Jobs (resolves the
  /// 0 = hardware-concurrency default; never returns 0).
  static unsigned resolveJobs(unsigned Jobs);

  /// The intra-conflict worker count a search will use for
  /// \p JobsInner when \p OuterWorkers conflict-level workers share the
  /// resolved \p Jobs budget (the 0 = auto-split default; never
  /// returns 0).
  static unsigned resolveInnerJobs(unsigned JobsInner, unsigned Jobs,
                                   unsigned OuterWorkers);

  /// Renders a report in the style of the paper's Figure 11.
  std::string render(const ConflictReport &R) const;

  /// The cumulative guard of the current/last examineAll run (also
  /// consulted by standalone examine calls for cancellation).
  const ResourceGuard &cumulativeGuard() const { return Cumulative; }

private:
  /// examine() with a conflict index for trace spans and worker metrics
  /// (-1 for standalone calls); shares the never-throws boundary.
  ConflictReport examineIndexed(const Conflict &C, long long Index);
  ConflictReport examineImpl(const Conflict &C, long long Index);

  /// The shared failure-report construction path: every boundary that
  /// catches an escaped exception (examine's SearchError / bad_alloc
  /// handlers, the examineAll worker shield) builds its degraded report
  /// here so all of them carry the same shape — Failed status, a
  /// structured FailureReason, and UnifyingOutcome = Error.
  static ConflictReport failureReport(const Conflict &C,
                                      FailureReason::Kind K,
                                      const char *Stage, std::string Detail);

  /// Restores the state-item graph from the cache when possible (storing
  /// it after a cold build), recording hits and degradations in
  /// \p Activity. Declared here so the Graph member can be initialized
  /// through it without the header depending on cache/AnalysisCache.h.
  static StateItemGraph buildOrRestoreGraph(const ParseTable &Table,
                                            const FinderOptions &Opts,
                                            CacheActivity &Activity);

  /// OwnedGraph's initializer: the built-or-restored graph, or nullopt
  /// when FinderOptions::Incremental supplies an external one.
  static std::optional<StateItemGraph>
  makeOwnedGraph(const ParseTable &Table, const FinderOptions &Opts,
                 CacheActivity &Activity);

  /// Conflict-level workers of the currently running examineAll (1 for
  /// standalone examine calls): the denominator of the JobsInner = 0
  /// auto split. Written before the worker pool starts, read-only while
  /// it runs.
  unsigned OuterWorkersActive = 1;

  const ParseTable &Table;
  const Grammar &G;
  /// Declared before Graph: buildOrRestoreGraph fills it during Graph's
  /// initialization.
  CacheActivity Cache;
  /// The finder's own graph, absent when an IncrementalSession lends one
  /// through FinderOptions::Incremental (the session's graph is already
  /// built for this table's automaton).
  std::optional<StateItemGraph> OwnedGraph;
  const StateItemGraph &Graph;
  NonunifyingBuilder Nonunifying;
  UnifyingSearch Unifying;
  FinderOptions Opts;
  /// Shared cumulative budget: wall clock, deterministic steps, and the
  /// caller's cancellation token.
  ResourceGuard Cumulative;
};

} // namespace lalrcex

#endif // LALRCEX_COUNTEREXAMPLE_COUNTEREXAMPLEFINDER_H
