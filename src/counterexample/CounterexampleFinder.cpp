//===- counterexample/CounterexampleFinder.cpp -----------------*- C++ -*-===//
//
// Part of lalrcex.
//
// The degradation ladder lives here: unifying search -> nonunifying
// counterexample -> bare item-pair report. Every rung is guarded — budget
// exhaustion, cancellation, allocation failure, and malformed search state
// all fall to the next rung and record a FailureReason, so examine() and
// examineAll() never throw and every conflict always gets a report.
//
//===----------------------------------------------------------------------===//

#include "counterexample/CounterexampleFinder.h"

#include "cache/AnalysisCache.h"
#include "counterexample/Advisor.h"
#include "counterexample/IncrementalSession.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <algorithm>
#include <new>
#include <system_error>
#include <thread>

using namespace lalrcex;

const char *FailureReason::kindName(Kind K) {
  switch (K) {
  case InternalError:
    return "internal-error";
  case AllocationFailure:
    return "allocation-failure";
  case StepLimit:
    return "step-limit";
  case MemoryLimit:
    return "memory-limit";
  case Deadline:
    return "deadline";
  case Cancelled:
    return "cancelled";
  case PathUnavailable:
    return "path-unavailable";
  }
  return "unknown";
}

namespace {

/// The cumulative budget across one examineAll run.
ResourceLimits cumulativeLimits(const FinderOptions &Opts) {
  ResourceLimits L;
  L.MaxSteps = Opts.CumulativeMaxConfigurations;
  if (Opts.CumulativeTimeLimitSeconds != 0)
    L.WallClockSeconds = Opts.CumulativeTimeLimitSeconds;
  L.WallPollPeriod = Opts.WallPollPeriod;
  return L;
}

FailureReason::Kind kindOfStop(GuardStop S) {
  switch (S) {
  case GuardStop::StepLimit:
    return FailureReason::StepLimit;
  case GuardStop::MemoryLimit:
    return FailureReason::MemoryLimit;
  case GuardStop::Deadline:
    return FailureReason::Deadline;
  case GuardStop::Cancelled:
    return FailureReason::Cancelled;
  case GuardStop::None:
    break;
  }
  return FailureReason::InternalError;
}

/// Folds a degraded cache probe into \p Activity as a structured
/// FailureReason (first degradation wins; plain misses are ignored).
void noteCacheProbe(CacheActivity &Activity, const cache::CacheProbe &P) {
  if (!P.degraded() || Activity.Degradation)
    return;
  std::string Detail = cache::toString(P.Outcome);
  if (!P.Detail.empty())
    Detail += ": " + P.Detail;
  Activity.Degradation = FailureReason{FailureReason::InternalError,
                                       "cache-load", std::move(Detail)};
}

} // namespace

StateItemGraph CounterexampleFinder::buildOrRestoreGraph(
    const ParseTable &Table, const FinderOptions &Opts,
    CacheActivity &Activity) {
  MetricsRegistry *M = Opts.Metrics;
  if (Opts.CachePath.empty())
    return StateItemGraph(Table.automaton(), M, Opts.Trace);
  cache::AnalysisCache Cache(Opts.CachePath);
  std::optional<StateItemGraph> Restored;
  cache::CacheProbe P;
  {
    ScopedTimer LoadTimer(M, metric::TimeCacheLoadNs);
    P = Cache.loadGraph(Table.automaton(), Restored);
  }
  if (P.hit()) {
    if (M)
      M->add(metric::CacheHits);
    Activity.GraphFromCache = true;
    return std::move(*Restored);
  }
  if (M) {
    M->add(metric::CacheMisses);
    if (P.degraded())
      M->add(metric::CacheDegradations);
  }
  noteCacheProbe(Activity, P);
  StateItemGraph Built(Table.automaton(), M, Opts.Trace);
  {
    ScopedTimer StoreTimer(M, metric::TimeCacheStoreNs);
    Cache.storeGraph(Built);
  }
  if (M)
    M->add(metric::CacheStores);
  return Built;
}

std::optional<StateItemGraph>
CounterexampleFinder::makeOwnedGraph(const ParseTable &Table,
                                     const FinderOptions &Opts,
                                     CacheActivity &Activity) {
  // An incremental handoff lends the session's graph — already built
  // for exactly this table's automaton — so the finder neither rebuilds
  // nor restores one.
  if (Opts.Incremental && Opts.Incremental->Graph &&
      &Opts.Incremental->Graph->automaton() == &Table.automaton())
    return std::nullopt;
  return buildOrRestoreGraph(Table, Opts, Activity);
}

CounterexampleFinder::CounterexampleFinder(const ParseTable &Table,
                                           FinderOptions Opts)
    : Table(Table), G(Table.automaton().grammar()),
      OwnedGraph(makeOwnedGraph(Table, Opts, Cache)),
      Graph(OwnedGraph ? *OwnedGraph : *Opts.Incremental->Graph),
      Nonunifying(Graph), Unifying(Graph), Opts(Opts),
      Cumulative(cumulativeLimits(Opts), Opts.Cancellation) {
  Cumulative.attachMetrics(this->Opts.Metrics);
}

ConflictReport CounterexampleFinder::failureReport(const Conflict &C,
                                                   FailureReason::Kind K,
                                                   const char *Stage,
                                                   std::string Detail) {
  ConflictReport R;
  R.TheConflict = C;
  R.Status = CounterexampleStatus::Failed;
  R.UnifyingOutcome = UnifyingStatus::Error;
  R.Failure = FailureReason{K, Stage, std::move(Detail)};
  return R;
}

ConflictReport CounterexampleFinder::examine(const Conflict &C) {
  return examineIndexed(C, -1);
}

ConflictReport CounterexampleFinder::examineIndexed(const Conflict &C,
                                                    long long Index) {
  // Last-resort boundary: examineImpl degrades failures itself, but an
  // allocation failure can strike anywhere, and examine() must not throw.
  try {
    return examineImpl(C, Index);
  } catch (const SearchError &E) {
    return failureReport(C, FailureReason::InternalError, "examine",
                         E.what());
  } catch (const std::bad_alloc &) {
    return failureReport(C, FailureReason::AllocationFailure, "examine",
                         "allocation failure");
  }
}

ConflictReport CounterexampleFinder::examineImpl(const Conflict &C,
                                                 long long Index) {
  Stopwatch Timer;
  ScopedTimer MetricTimer(Opts.Metrics, metric::TimeConflictNs);
  TraceSpan ConflictSpan(Opts.Trace, "conflict", Index);
  if (Opts.Metrics)
    Opts.Metrics->add(metric::ExamineConflicts);
  ConflictReport Report;
  Report.TheConflict = C;

  // Records the first (most significant) degradation reason only.
  auto fail = [&](FailureReason::Kind K, const char *Stage,
                  std::string Detail) {
    if (!Report.Failure)
      Report.Failure = FailureReason{K, Stage, std::move(Detail)};
  };
  auto finish = [&]() {
    Report.Seconds = Timer.seconds();
    return std::move(Report);
  };

  // Locate the conflict items in the state-item graph. Malformed conflict
  // records (bad production index, state, or item) degrade to a bare
  // item-pair report instead of corrupting the searches.
  if (C.ReduceProd >= G.numProductions() ||
      (C.K == Conflict::ReduceReduce && C.OtherProd >= G.numProductions())) {
    fail(FailureReason::InternalError, "conflict-setup",
         "conflict references an out-of-range production");
    return finish();
  }
  Item ReduceItem = C.reduceItem(G);
  StateItemGraph::NodeId ReduceNode = Graph.nodeFor(C.State, ReduceItem);
  if (ReduceNode == StateItemGraph::InvalidNode) {
    fail(FailureReason::InternalError, "conflict-setup",
         "conflict reduce item missing from its state");
    return finish();
  }

  std::vector<StateItemGraph::NodeId> OtherNodes;
  if (C.K == Conflict::ShiftReduce) {
    // One conflict record exists per shift item (CUP counting); search
    // with that specific item.
    StateItemGraph::NodeId N = Graph.nodeFor(C.State, C.ShiftItm);
    if (N == StateItemGraph::InvalidNode) {
      fail(FailureReason::InternalError, "conflict-setup",
           "conflict shift item missing from its state");
      return finish();
    }
    OtherNodes.push_back(N);
    Report.ShiftItem = C.ShiftItm;
  } else {
    Item OtherItem(C.OtherProd,
                   uint32_t(G.production(C.OtherProd).Rhs.size()));
    StateItemGraph::NodeId N = Graph.nodeFor(C.State, OtherItem);
    if (N == StateItemGraph::InvalidNode) {
      fail(FailureReason::InternalError, "conflict-setup",
           "second conflict reduce item missing from its state");
      return finish();
    }
    OtherNodes.push_back(N);
  }

  // Shortest lookahead-sensitive path (§4). Both fallback rungs need it,
  // so it is bounded only by cancellation, not by the cumulative search
  // budgets (nonunifying-only mode must still work after exhaustion).
  ResourceLimits LssLimits;
  LssLimits.WallPollPeriod = Opts.WallPollPeriod;
  ResourceGuard LssGuard(LssLimits, Opts.Cancellation);
  LssGuard.attachMetrics(Opts.Metrics);
  std::optional<LssPath> Path;
  LssStats PathStats;
  try {
    TraceSpan LssSpan(Opts.Trace, "lss", Index);
    Path = shortestLookaheadSensitivePath(
        Graph, ReduceNode, C.Token,
        /*PruneToReaching=*/true, &LssGuard,
        Opts.CollectLssStats ? &PathStats : nullptr, Opts.Metrics);
    if (Opts.CollectLssStats)
      Report.Lss = PathStats;
  } catch (const SearchError &E) {
    fail(FailureReason::InternalError, "lss-path", E.what());
    return finish();
  }
  if (!Path) {
    if (LssGuard.stopped() == GuardStop::Cancelled) {
      Report.Status = CounterexampleStatus::Cancelled;
      fail(FailureReason::Cancelled, "lss-path", "cancellation requested");
    } else {
      fail(FailureReason::PathUnavailable, "lss-path",
           "no shortest lookahead-sensitive path to the conflict item");
    }
    return finish();
  }

  // Unifying search (§5) within the per-conflict and cumulative budgets.
  GuardStop CumStop = Cumulative.stop();
  if (CumStop == GuardStop::Cancelled) {
    Report.Status = CounterexampleStatus::Cancelled;
    fail(FailureReason::Cancelled, "cumulative-budget",
         "cancellation requested");
    return finish();
  }
  if (Opts.UnifyingEnabled && CumStop == GuardStop::None) {
    UnifyingOptions UO;
    // Effective wall budget: the smaller of the per-conflict limit and
    // whatever remains of the cumulative deadline. Zero means unlimited,
    // so a computed non-positive remainder maps to "already expired".
    double Remaining = Cumulative.remainingSeconds();
    double Effective = Opts.ConflictTimeLimitSeconds;
    if (Effective == 0 || (Remaining < 1e17 && Remaining < Effective))
      Effective = Remaining < 1e17 ? Remaining : 0;
    if (Effective == 0 && Opts.ConflictTimeLimitSeconds != 0)
      Effective = -1;
    UO.TimeLimitSeconds = Effective;
    UO.ExtendedSearch = Opts.ExtendedSearch;
    UO.MemoryLimitBytes = Opts.MemoryLimitBytes;
    UO.Cancellation = Opts.Cancellation;
    UO.WallPollPeriod = Opts.WallPollPeriod;
    UO.Metrics = Opts.Metrics;
    UO.InnerJobs =
        resolveInnerJobs(Opts.JobsInner, Opts.Jobs, OuterWorkersActive);
    // Effective step budget: per-conflict cap, shrunk to what the
    // cumulative deterministic budget still allows.
    UO.MaxConfigurations = Opts.MaxConfigurations;
    if (Cumulative.limits().MaxSteps != ResourceLimits::Unlimited) {
      size_t CumLeft = Cumulative.limits().MaxSteps > Cumulative.steps()
                           ? Cumulative.limits().MaxSteps -
                                 Cumulative.steps()
                           : 0;
      UO.MaxConfigurations = std::min(UO.MaxConfigurations, CumLeft);
    }

    UnifyingResult UR = [&] {
      TraceSpan UnifySpan(Opts.Trace, "unifying", Index);
      return Unifying.search(ReduceNode, OtherNodes, C.Token, &*Path, UO);
    }();
    Report.Configurations = UR.ConfigurationsExplored;
    Report.PeakBytes = UR.PeakBytes;
    Report.UnifyingOutcome = UR.Status;
    // One shared guard accounts cumulative work exactly — no per-conflict
    // wall-clock summation drift.
    Cumulative.chargeSteps(UR.ConfigurationsExplored);

    switch (UR.Status) {
    case UnifyingStatus::Found:
      Report.Status = CounterexampleStatus::UnifyingFound;
      Report.Example = std::move(UR.Example);
      return finish();
    case UnifyingStatus::Exhausted:
      Report.Status = CounterexampleStatus::NonunifyingComplete;
      break;
    case UnifyingStatus::TimedOut:
      Report.Status = CounterexampleStatus::NonunifyingTimeout;
      fail(FailureReason::Deadline, "unifying-search",
           "per-conflict wall-clock budget exhausted");
      break;
    case UnifyingStatus::LimitHit:
      Report.Status = CounterexampleStatus::NonunifyingTimeout;
      fail(FailureReason::StepLimit, "unifying-search",
           "configuration step budget exhausted");
      break;
    case UnifyingStatus::MemoryLimit:
      Report.Status = CounterexampleStatus::NonunifyingTimeout;
      fail(FailureReason::MemoryLimit, "unifying-search",
           "search memory budget exhausted");
      break;
    case UnifyingStatus::Cancelled:
      Report.Status = CounterexampleStatus::Cancelled;
      fail(FailureReason::Cancelled, "unifying-search",
           "cancellation requested");
      return finish();
    case UnifyingStatus::Error:
      Report.Status = CounterexampleStatus::Failed;
      fail(UR.BadAlloc ? FailureReason::AllocationFailure
                       : FailureReason::InternalError,
           "unifying-search", UR.Message);
      break;
    }
  } else if (!Opts.UnifyingEnabled) {
    // Nonunifying-only mode by configuration.
    Report.Status = CounterexampleStatus::NonunifyingTimeout;
  } else {
    // Cumulative budget exhausted: nonunifying-only for the remainder.
    Report.Status = CounterexampleStatus::NonunifyingTimeout;
    fail(kindOfStop(CumStop), "cumulative-budget",
         std::string("cumulative budget exhausted (") + toString(CumStop) +
             ")");
  }

  // Fall back to a nonunifying counterexample (§4), trying each candidate
  // conflicting item. Builder failures degrade to the bare report.
  {
    ScopedTimer NonunifTimer(Opts.Metrics, metric::TimeNonunifyingNs);
    TraceSpan NonunifSpan(Opts.Trace, "nonunifying", Index);
    for (StateItemGraph::NodeId Other : OtherNodes) {
      std::optional<Counterexample> Ex;
      try {
        if (Opts.Metrics)
          Opts.Metrics->add(metric::NonunifyingBuilds);
        Ex = Nonunifying.build(*Path, Other, C.Token);
      } catch (const SearchError &E) {
        if (Opts.Metrics)
          Opts.Metrics->add(metric::NonunifyingFailures);
        Report.Status = CounterexampleStatus::Failed;
        fail(FailureReason::InternalError, "nonunifying-builder", E.what());
        continue;
      } catch (const std::bad_alloc &) {
        if (Opts.Metrics)
          Opts.Metrics->add(metric::NonunifyingFailures);
        Report.Status = CounterexampleStatus::Failed;
        fail(FailureReason::AllocationFailure, "nonunifying-builder",
             "allocation failure");
        continue;
      }
      if (Ex) {
        Report.Example = std::move(Ex);
        break;
      }
    }
  }
  if (!Report.Example && Report.Status != CounterexampleStatus::Failed) {
    Report.Status = CounterexampleStatus::Failed;
    fail(FailureReason::PathUnavailable, "nonunifying-builder",
         "no nonunifying derivation for the conflicting item");
  }
  return finish();
}

unsigned CounterexampleFinder::resolveJobs(unsigned Jobs) {
  if (Jobs == 0)
    Jobs = std::thread::hardware_concurrency();
  return Jobs == 0 ? 1 : Jobs;
}

unsigned CounterexampleFinder::resolveInnerJobs(unsigned JobsInner,
                                                unsigned Jobs,
                                                unsigned OuterWorkers) {
  if (JobsInner != 0)
    return JobsInner;
  // Auto split: divide the total worker budget evenly across the
  // conflict-level workers, so few conflicts on a wide machine still
  // saturate it (one conflict on 8 cores gets 8 inner workers).
  return std::max(1u, resolveJobs(Jobs) / std::max(1u, OuterWorkers));
}

std::vector<ConflictReport> CounterexampleFinder::examineAll() {
  MetricsRegistry *M = Opts.Metrics;
  ScopedTimer RunTimer(M, metric::TimeExamineAllNs);
  TraceSpan RunSpan(Opts.Trace, "examine-all");
  if (M)
    M->add(metric::ExamineRuns);

  // Fresh cumulative guard per run; the caller's token is shared, so a
  // cancellation tripped earlier still applies.
  Cumulative.reset(cumulativeLimits(Opts), Opts.Cancellation);

  // Warm path: a cached report set for this exact (grammar, automaton
  // kind, options) key is returned verbatim — including the cold run's
  // timing fields — so warm output is byte-identical to cold output.
  AutomatonKind Kind = Table.automaton().kind();
  Cache.ReportsFromCache = false;
  Cache.ConflictsReused = 0;
  Cache.ConflictsRecomputed = 0;
  Cache.ConflictsRemapped = 0;
  if (!Opts.CachePath.empty()) {
    cache::AnalysisCache ReportCache(Opts.CachePath);
    std::vector<ConflictReport> Cached;
    cache::CacheProbe P;
    {
      ScopedTimer LoadTimer(M, metric::TimeCacheLoadNs);
      P = ReportCache.loadReports(G, Kind, Opts, Cached);
    }
    if (P.hit()) {
      if (M)
        M->add(metric::CacheHits);
      Cache.ReportsFromCache = true;
      return Cached;
    }
    if (M) {
      M->add(metric::CacheMisses);
      if (P.degraded())
        M->add(metric::CacheDegradations);
    }
    noteCacheProbe(Cache, P);
  }

  std::vector<Conflict> Reported = Table.reportedConflicts(Cumulative);
  std::vector<ConflictReport> Out(Reported.size());

  // Fine-grained warm path: the whole-set key moved (any grammar edit
  // moves it), but individual conflicts may be unchanged — their
  // per-conflict key is over automaton structure, not names/precedence,
  // so it survives edits that leave the conflict's supporting slice
  // intact. Probe serially on the calling thread: probes are cheap file
  // reads, and a deterministic probe order keeps reuse accounting
  // identical across job counts. Misses fall through to Pending, the
  // cold recompute set.
  //
  // Eligibility: a finite *cumulative* budget couples conflicts — each
  // conflict's effective step budget depends on how much the ones before
  // it consumed — so a report is only a pure function of (automaton
  // structure, options, conflict) when the cumulative budget cannot
  // bind. Reusing under a finite cumulative budget could diverge from a
  // cold recompute, so the fine-grained layer switches off entirely
  // there (the whole-set warm path above is unaffected: its blob is the
  // verbatim output of one complete run under identical options).
  const bool FineGrained =
      !Opts.CachePath.empty() && !Reported.empty() &&
      Opts.CumulativeMaxConfigurations == ResourceLimits::Unlimited &&
      Opts.CumulativeTimeLimitSeconds == 0;
  std::vector<size_t> Pending;
  Pending.reserve(Reported.size());
  std::vector<Fingerprint128> Keys;
  // Remapped conflicts (index, translated touched set), re-published under
  // their current-generation key after the run.
  std::vector<std::pair<size_t, std::vector<uint32_t>>> Remapped;
  if (FineGrained) {
    cache::AnalysisCache ConflictCache(Opts.CachePath);
    cache::ConflictKeyContext Ctx(Table.automaton(), Opts);
    // Incremental remap layer: on a direct miss, probe the conflict under
    // its *previous* generation's key (every structural edit moves the
    // key — it hashes automaton structure by raw state/production ids)
    // and re-serve the old blob with all ids rewritten, provided the
    // recorded graph-read set verifies node-for-node under the edit's
    // maps (IncrementalSession.h). The old key context is built lazily:
    // most runs have no handoff.
    const IncrementalHandoff *H =
        Opts.Incremental && Opts.Incremental->Graph &&
                &Opts.Incremental->Graph->automaton() == &Table.automaton()
            ? Opts.Incremental
            : nullptr;
    std::optional<cache::ConflictKeyContext> OldCtx;
    Keys.resize(Reported.size());
    ScopedTimer LoadTimer(M, metric::TimeCacheLoadNs);
    for (size_t I = 0, E = Reported.size(); I != E; ++I) {
      Keys[I] = Ctx.conflictFingerprint(Reported[I]);
      ConflictReport Rep;
      cache::CacheProbe CP =
          ConflictCache.loadConflictReport(Keys[I], G, Reported[I], Rep);
      if (CP.hit()) {
        Out[I] = std::move(Rep);
        ++Cache.ConflictsReused;
        continue;
      }
      if (CP.degraded() && M)
        M->add(metric::CacheDegradations);
      noteCacheProbe(Cache, CP);
      if (H) {
        Conflict OldC;
        if (H->mapConflictToOld(Reported[I], OldC)) {
          if (!OldCtx)
            OldCtx.emplace(H->PrevTable->automaton(), Opts);
          ConflictReport OldRep;
          std::vector<uint32_t> OldTouched;
          cache::CacheProbe OP = ConflictCache.loadConflictReport(
              OldCtx->conflictFingerprint(OldC), *H->PrevG, OldC, OldRep,
              &OldTouched);
          if (OP.degraded() && M)
            M->add(metric::CacheDegradations);
          noteCacheProbe(Cache, OP);
          std::vector<uint32_t> NewTouched;
          if (OP.hit() && H->verifyTouched(OldC.Token, OldTouched, &NewTouched) &&
              H->remapReport(OldRep, OldC, Reported[I], Out[I])) {
            ++Cache.ConflictsRemapped;
            Remapped.emplace_back(I, std::move(NewTouched));
            continue;
          }
        }
      }
      Pending.push_back(I);
    }
    Cache.ConflictsRecomputed = Pending.size();
    if (M) {
      M->add(metric::CacheConflictsReused, Cache.ConflictsReused);
      M->add(metric::CacheConflictsRemapped, Cache.ConflictsRemapped);
      M->add(metric::CacheConflictsRecomputed, Pending.size());
    }
  } else {
    for (size_t I = 0, E = Reported.size(); I != E; ++I)
      Pending.push_back(I);
  }

  unsigned Jobs = resolveJobs(Opts.Jobs);
  if (size_t(Jobs) > Pending.size())
    Jobs = unsigned(Pending.size());
  // The JobsInner = 0 auto split divides the Jobs budget by the
  // conflict-level worker count of this run.
  OuterWorkersActive = std::max(1u, Jobs);
  // Graph-read recording for v2 per-conflict blobs (the remap layer's
  // verification set). Speculation workers of the parallel unifying
  // search log each slot's graph reads into its SlotSpec; the commit
  // loop replays committed slots' logs into this thread's recorder, so
  // the recorded set equals the serial schedule's at any inner worker
  // count and recording no longer pins the search to one thread.
  const bool RecordTouch = FineGrained;
  std::vector<std::vector<uint32_t>> PendingTouched(
      RecordTouch ? Pending.size() : 0);
  auto examineRecorded = [&](size_t K) {
    size_t I = Pending[K];
    if (!RecordTouch) {
      Out[I] = examineIndexed(Reported[I], (long long)I);
      return;
    }
    GraphTouchRecorder Rec(Graph.numNodes());
    ScopedGraphTouchRecorder Scope(&Rec);
    Out[I] = examineIndexed(Reported[I], (long long)I);
    PendingTouched[K] = Rec.sortedNodes();
  };
  if (Jobs <= 1) {
    if (M)
      M->gaugeMax(metric::ExamineWorkers, 1);
    for (size_t K = 0, E = Pending.size(); K != E; ++K)
      examineRecorded(K);
  } else {
    // Worker pool over an atomic index dispenser. The graph, analysis,
    // and builders are read-only after construction; the cumulative guard
    // is charged atomically; and each worker writes only Out[I] for
    // indices it claimed, so reports land in conflict order without any
    // reordering step. examine() never throws, but a worker still shields
    // the pool so an unexpected exception degrades one report instead of
    // terminating — through the same failure-report path as examine's own
    // boundary, so shielded reports carry the error UnifyingOutcome too.
    std::atomic<size_t> Next{0};
    auto Work = [&] {
      Stopwatch Busy;
      for (size_t K = Next.fetch_add(1, std::memory_order_relaxed);
           K < Pending.size();
           K = Next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          examineRecorded(K);
        } catch (...) {
          if (M)
            M->add(metric::ExamineWorkerFailures);
          Out[Pending[K]] =
              failureReport(Reported[Pending[K]],
                            FailureReason::InternalError, "examine-all",
                            "worker failure");
        }
      }
      if (M)
        M->observe(metric::TimeWorkerBusyNs,
                   uint64_t(Busy.seconds() * 1e9));
    };
    std::vector<std::thread> Pool;
    Pool.reserve(Jobs - 1);
    for (unsigned T = 1; T < Jobs; ++T) {
      try {
        Pool.emplace_back(Work);
      } catch (const std::system_error &) {
        break; // thread exhaustion: degrade to fewer workers
      }
    }
    if (M)
      M->gaugeMax(metric::ExamineWorkers, Pool.size() + 1);
    Work(); // the calling thread is always worker 0
    for (std::thread &T : Pool)
      T.join();
  }

  OuterWorkersActive = 1; // standalone examine() gets the full budget

  // Publish the report set unless cancellation truncated it: a cancelled
  // run's reports are a function of *when* the token tripped, not of the
  // (grammar, options) key, so caching them would serve nondeterministic
  // bytes to later runs. Recomputed conflicts also publish their
  // per-conflict blob under the same rule, seeding fine-grained reuse
  // for post-edit runs.
  if (!Opts.CachePath.empty() &&
      std::none_of(Out.begin(), Out.end(), [](const ConflictReport &R) {
        return R.Status == CounterexampleStatus::Cancelled;
      })) {
    ScopedTimer StoreTimer(M, metric::TimeCacheStoreNs);
    cache::AnalysisCache Store(Opts.CachePath);
    Store.storeReports(G, Kind, Opts, Out);
    if (FineGrained) {
      for (size_t K = 0, E = Pending.size(); K != E; ++K) {
        const std::vector<uint32_t> *T =
            RecordTouch && !PendingTouched[K].empty() ? &PendingTouched[K]
                                                      : nullptr;
        Store.storeConflictReport(Keys[Pending[K]], Out[Pending[K]], T);
      }
      // Re-home remapped reports under their current-generation key with
      // the translated touched set, so the next edit probes one
      // generation back, never two.
      for (const auto &R : Remapped)
        Store.storeConflictReport(Keys[R.first], Out[R.first], &R.second);
    }
    if (M)
      M->add(metric::CacheStores);
  }
  return Out;
}

std::string CounterexampleFinder::render(const ConflictReport &R) const {
  const Conflict &C = R.TheConflict;
  std::string Out;
  Out += "Warning : *** ";
  Out += C.K == Conflict::ShiftReduce ? "Shift/Reduce" : "Reduce/Reduce";
  Out += " conflict found in state #" + std::to_string(C.State) + "\n";
  Out += "  between reduction on " +
         G.productionString(C.ReduceProd,
                            int(G.production(C.ReduceProd).Rhs.size())) +
         "\n";
  if (C.K == Conflict::ShiftReduce)
    Out += "  and shift on " +
           G.productionString(R.ShiftItem.Prod, int(R.ShiftItem.Dot)) + "\n";
  else
    Out += "  and reduction on " +
           G.productionString(C.OtherProd,
                              int(G.production(C.OtherProd).Rhs.size())) +
           "\n";
  Out += "  under symbol " + G.name(C.Token) + "\n";

  if (R.Status == CounterexampleStatus::Failed ||
      R.Status == CounterexampleStatus::Cancelled) {
    Out += "  Degraded report";
    if (R.Failure)
      Out += std::string(" (") + FailureReason::kindName(R.Failure->K) +
             " in " + R.Failure->Stage +
             (R.Failure->Detail.empty() ? "" : ": " + R.Failure->Detail) +
             ")";
    Out += "\n";
  }

  if (!R.Example) {
    Out += "  (no counterexample constructed)\n";
    return Out;
  }
  const Counterexample &Ex = *R.Example;
  auto derivsString = [this](const std::vector<DerivPtr> &Ds) {
    std::string S;
    for (size_t I = 0, E = Ds.size(); I != E; ++I) {
      if (I != 0)
        S += " ";
      S += Ds[I]->toString(G);
    }
    return S;
  };
  const char *Action2 =
      C.K == Conflict::ShiftReduce ? "shift" : "second reduction";
  if (Ex.Unifying) {
    Out += "  Ambiguity detected for nonterminal " + G.name(Ex.Root) + "\n";
    Out += "  Example: " + Ex.exampleString1(G) + "\n";
    Out += "  Derivation using reduction:\n    " + derivsString(Ex.Derivs1) +
           "\n";
    Out += std::string("  Derivation using ") + Action2 + ":\n    " +
           derivsString(Ex.Derivs2) + "\n";
  } else {
    if (R.Status == CounterexampleStatus::NonunifyingTimeout)
      Out += "  Time limit exceeded: a unifying counterexample may exist\n";
    else if (R.Status == CounterexampleStatus::NonunifyingComplete)
      Out += "  No unifying counterexample: the conflict is not an "
             "ambiguity (within the default search)\n";
    if (!Ex.PrefixShared)
      Out += "  Note: no single context admits both actions; the conflict "
             "is an artifact of LALR state merging, and each derivation "
             "below is shown in its own context\n";
    Out += "  First  example: " + Ex.exampleString1(G) + "\n";
    Out += "  Derivation using reduction:\n    " + derivsString(Ex.Derivs1) +
           "\n";
    Out += "  Second example: " + Ex.exampleString2(G) + "\n";
    Out += std::string("  Derivation using ") + Action2 + ":\n    " +
           derivsString(Ex.Derivs2) + "\n";
  }
  std::string Hint = suggestResolution(G, C);
  if (!Hint.empty())
    Out += "  Hint: " + Hint + "\n";
  return Out;
}
