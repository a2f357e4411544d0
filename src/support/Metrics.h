//===- support/Metrics.h - Sharded pipeline metrics registry ---*- C++ -*-===//
//
// Part of lalrcex.
//
// A process-wide observability registry for the counterexample pipeline:
// monotonic counters, max-merged gauges, and log2-bucketed histograms for
// wall times and search effort. The hot path is lock-free: every thread
// writes to its own cache-line-aligned shard with relaxed atomics, and a
// snapshot merges the shards. All instrumentation sites take a
// `MetricsRegistry *` that may be null; when it is null the site compiles
// down to a pointer test, so a run with metrics disabled pays nothing
// beyond that branch.
//
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_SUPPORT_METRICS_H
#define LALRCEX_SUPPORT_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lalrcex {

namespace metric {

/// Monotonic event counters, one per instrumented site. The order here
/// must match CounterNames in Metrics.cpp.
enum Counter : unsigned {
  AnalysisRuns,
  AnalysisNullablePasses,
  AnalysisFirstPasses,
  AnalysisFollowPasses,
  AnalysisMinYieldPasses,
  AutomatonBuilds,
  AutomatonStates,
  AutomatonClosureItems,
  AutomatonNtTransitions,
  AutomatonRelationEdges,
  GraphBuilds,
  GraphNodes,
  GraphEdges,
  LssSearches,
  LssExpanded, ///< vertices the lookahead-sensitive search popped
  LssEnqueued, ///< vertices it admitted to its frontier
  /// Successors it dropped because their key held their bit or the set bit.
  LssDominancePruned,
  UnifyingSearches,
  UnifyingConfigurations,
  UnifyingQueuePushes,
  UnifyingQueuePops,
  UnifyingFound,
  UnifyingExhausted,
  UnifyingBudgetStops,
  UnifyingSequenceEntries,  ///< item-sequence arena entries created
  UnifyingSequenceCompares, ///< intern hash matches settled by contents
  SearchTasksStolen,    ///< never incremented: the search is serial
  SearchBucketBarriers, ///< never incremented: the search is serial
  NonunifyingBuilds,
  NonunifyingFailures,
  GuardTripsStepLimit,
  GuardTripsMemoryLimit,
  GuardTripsDeadline,
  GuardTripsCancelled,
  CacheHits,
  CacheMisses,
  CacheDegradations,
  CacheStores,
  CacheConflictsReused,
  CacheConflictsRecomputed,
  CacheConflictsRemapped,
  /// Why a conflict that missed its blob was not remapped under an
  /// incremental handoff; each such miss counts under exactly one:
  CacheRemapUnmapped,   ///< no previous-generation conflict record
  CacheRemapAbsent,     ///< the previous blob holds no entry for it
  CacheRemapUnverified, ///< its touched set failed the RemapVerifier
  CacheRemapRefused,    ///< remapReport could not rewrite the report
  ExamineRuns,
  ExamineConflicts,
  ExamineWorkerFailures,
  FrontendParseFailures,
  FrontendParseWarnings,
  /// cache.remap_unverified split by the first check that failed
  /// (RemapVerifier::Verdict); each unverified miss counts under one:
  /// An empty or out-of-range touched set, an unmatched state, an
  /// unmapped production, or an item missing from the matched state.
  CacheRemapUnverifiedState,
  CacheRemapUnverifiedLookahead, ///< a lookahead set differs
  CacheRemapUnverifiedRow,       ///< the forward target or a row differs
  CacheRemapUnverifiedFirst,  ///< a symbol unmapped, FIRST/nullable changed
  CacheRemapUnverifiedChoice, ///< a minimal-derivation choice moved
  /// Configurations a unifying search popped and goal-tested but did not
  /// expand, because its queue already held every configuration its step
  /// budget could still pop (DESIGN.md §5c, saturation).
  UnifyingSaturatedPops,
  NumCounters
};

/// Max-merged gauges (high-water marks). Order must match GaugeNames.
enum Gauge : unsigned {
  ExamineWorkers,
  UnifyingPeakBytes,
  NumGauges
};

/// Log2-bucketed histograms. Time histograms record nanoseconds; effort
/// histograms record raw counts. Order must match HistNames.
enum Hist : unsigned {
  TimeAnalysisNs,
  TimeAutomatonNs,
  TimeGraphBuildNs,
  TimeLssNs,
  TimeUnifyingNs,
  TimeNonunifyingNs,
  TimeConflictNs,
  TimeExamineAllNs,
  TimeWorkerBusyNs,
  TimeCacheLoadNs,
  TimeCacheStoreNs,
  EffortConflictConfigurations,
  /// Per guard-stopped unifying search: from the step() that returned the
  /// stop to the search's return, teardown of its arenas included.
  TimeGuardOvershootNs,
  NumHists
};

/// Stable dotted name for each id (e.g. "lss.expanded", "time.lss_ns").
const char *name(Counter C);
const char *name(Gauge G);
const char *name(Hist H);

/// Buckets per histogram: bucket i counts values v with bit_width(v) == i,
/// i.e. bucket 0 holds v == 0 and bucket i holds 2^(i-1) <= v < 2^i.
constexpr unsigned HistBuckets = 64;

} // namespace metric

/// Point-in-time merged view of a MetricsRegistry (or of several, via
/// merge()). Plain integers; safe to copy and inspect without the
/// registry's atomics.
class MetricsSnapshot {
public:
  struct HistData {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Max = 0;
    uint64_t Buckets[metric::HistBuckets] = {};
  };

  uint64_t Counters[metric::NumCounters] = {};
  uint64_t Gauges[metric::NumGauges] = {};
  HistData Hists[metric::NumHists];

  uint64_t counter(metric::Counter C) const { return Counters[C]; }
  uint64_t gauge(metric::Gauge G) const { return Gauges[G]; }
  const HistData &hist(metric::Hist H) const { return Hists[H]; }

  /// Accumulates \p Other into this snapshot (counters and histogram
  /// fields add; gauges take the max).
  void merge(const MetricsSnapshot &Other);

  /// Human-readable table: one "name value" line per non-zero counter
  /// and gauge, and "name count=N sum=S mean=M max=X" per non-empty
  /// histogram, in id order.
  std::string renderText() const;

  /// Flattens every non-zero metric to (dotted-name, value) pairs, in id
  /// order. Histograms contribute name.count, name.sum, and name.max.
  std::vector<std::pair<std::string, uint64_t>> flatten() const;
};

/// Sharded lock-free metrics registry. Each thread is assigned a shard on
/// first use (round-robin over a fixed pool); all updates are relaxed
/// atomic adds/maxes on that shard, so concurrent writers never contend
/// on a line except by accidental shard collision. snapshot() sums the
/// shards. Counts are monotonically increasing; there is no reset.
class MetricsRegistry {
public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  void add(metric::Counter C, uint64_t N = 1) {
    shard().Counters[C].fetch_add(N, std::memory_order_relaxed);
  }

  void gaugeMax(metric::Gauge G, uint64_t V) {
    atomicMax(shard().Gauges[G], V);
  }

  void observe(metric::Hist H, uint64_t V) {
    Shard &S = shard();
    HistShard &HS = S.Hists[H];
    HS.Count.fetch_add(1, std::memory_order_relaxed);
    HS.Sum.fetch_add(V, std::memory_order_relaxed);
    atomicMax(HS.Max, V);
    HS.Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Sums all shards into a coherent-enough view. Concurrent updates may
  /// or may not be included; values never go backwards.
  MetricsSnapshot snapshot() const;

  /// Bucket index for \p V: 0 for 0, otherwise bit_width(V).
  static unsigned bucketOf(uint64_t V);

private:
  struct HistShard {
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Max{0};
    std::atomic<uint64_t> Buckets[metric::HistBuckets] = {};
  };

  struct alignas(64) Shard {
    std::atomic<uint64_t> Counters[metric::NumCounters] = {};
    std::atomic<uint64_t> Gauges[metric::NumGauges] = {};
    HistShard Hists[metric::NumHists];
  };

  static constexpr unsigned NumShards = 16;

  Shard &shard();

  static void atomicMax(std::atomic<uint64_t> &Slot, uint64_t V) {
    uint64_t Cur = Slot.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  std::unique_ptr<Shard[]> Shards;
};

/// RAII wall-clock timer that records into a histogram on destruction.
/// With a null registry the constructor never reads the clock, so a
/// disabled pipeline pays only the null test.
class ScopedTimer {
public:
  ScopedTimer(MetricsRegistry *Reg, metric::Hist H) : Reg(Reg), Id(H) {
    if (Reg)
      Start = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

  /// Records now (idempotent); useful to end the interval before the
  /// enclosing scope does.
  void stop() {
    if (!Reg)
      return;
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    Reg->observe(Id, uint64_t(Ns < 0 ? 0 : Ns));
    Reg = nullptr;
  }

private:
  MetricsRegistry *Reg;
  metric::Hist Id;
  std::chrono::steady_clock::time_point Start;
};

} // namespace lalrcex

#endif // LALRCEX_SUPPORT_METRICS_H
