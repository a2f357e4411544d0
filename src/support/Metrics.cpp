//===- support/Metrics.cpp ------------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <bit>
#include <cassert>
#include <cstdio>

using namespace lalrcex;

namespace {

const char *const CounterNames[metric::NumCounters] = {
    "analysis.runs",
    "analysis.nullable_passes",
    "analysis.first_passes",
    "analysis.follow_passes",
    "analysis.minyield_passes",
    "automaton.builds",
    "automaton.states",
    "automaton.closure_items",
    "automaton.nt_transitions",
    "automaton.relation_edges",
    "graph.builds",
    "graph.nodes",
    "graph.edges",
    "lss.searches",
    "lss.expanded",
    "lss.enqueued",
    "lss.dominance_pruned",
    "unifying.searches",
    "unifying.configurations",
    "unifying.queue_pushes",
    "unifying.queue_pops",
    "unifying.found",
    "unifying.exhausted",
    "unifying.budget_stops",
    "unifying.sequence_entries",
    "unifying.sequence_compares",
    "search.tasks_stolen",
    "search.bucket_barriers",
    "nonunifying.builds",
    "nonunifying.failures",
    "guard.trips.step_limit",
    "guard.trips.memory_limit",
    "guard.trips.deadline",
    "guard.trips.cancelled",
    "cache.hits",
    "cache.misses",
    "cache.degradations",
    "cache.stores",
    "cache.conflicts_reused",
    "cache.conflicts_recomputed",
    "cache.conflicts_remapped",
    "cache.remap_unmapped",
    "cache.remap_absent",
    "cache.remap_unverified",
    "cache.remap_refused",
    "examine.runs",
    "examine.conflicts",
    "examine.worker_failures",
    "frontend.parse_failures",
    "frontend.parse_warnings",
    "cache.remap_unverified_state",
    "cache.remap_unverified_lookahead",
    "cache.remap_unverified_row",
    "cache.remap_unverified_first",
    "cache.remap_unverified_choice",
};

const char *const GaugeNames[metric::NumGauges] = {
    "examine.workers",
    "unifying.peak_bytes",
};

const char *const HistNames[metric::NumHists] = {
    "time.analysis_ns",
    "time.automaton_ns",
    "time.graph_build_ns",
    "time.lss_ns",
    "time.unifying_ns",
    "time.nonunifying_ns",
    "time.conflict_ns",
    "time.examine_all_ns",
    "time.worker_busy_ns",
    "time.cache_load_ns",
    "time.cache_store_ns",
    "effort.conflict_configurations",
    "time.guard_overshoot_ns",
};

} // namespace

const char *metric::name(metric::Counter C) {
  assert(C < metric::NumCounters);
  return CounterNames[C];
}

const char *metric::name(metric::Gauge G) {
  assert(G < metric::NumGauges);
  return GaugeNames[G];
}

const char *metric::name(metric::Hist H) {
  assert(H < metric::NumHists);
  return HistNames[H];
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

MetricsRegistry::MetricsRegistry() : Shards(new Shard[NumShards]) {}

MetricsRegistry::~MetricsRegistry() = default;

unsigned MetricsRegistry::bucketOf(uint64_t V) {
  // bit_width(0) == 0, so bucket 0 holds exactly the zero values and
  // bucket i (i >= 1) holds [2^(i-1), 2^i).
  return unsigned(std::bit_width(V));
}

MetricsRegistry::Shard &MetricsRegistry::shard() {
  // Each thread picks a shard once, round-robin over the pool. The index
  // is per-thread but the registry is per-run, so different registries
  // share the assignment; that only affects which shard a thread lands
  // on, never correctness.
  static std::atomic<unsigned> GlobalThreadCounter{0};
  thread_local unsigned Idx =
      GlobalThreadCounter.fetch_add(1, std::memory_order_relaxed) % NumShards;
  return Shards[Idx];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot Snap;
  for (unsigned S = 0; S != NumShards; ++S) {
    const Shard &Sh = Shards[S];
    for (unsigned C = 0; C != metric::NumCounters; ++C)
      Snap.Counters[C] += Sh.Counters[C].load(std::memory_order_relaxed);
    for (unsigned G = 0; G != metric::NumGauges; ++G) {
      uint64_t V = Sh.Gauges[G].load(std::memory_order_relaxed);
      if (V > Snap.Gauges[G])
        Snap.Gauges[G] = V;
    }
    for (unsigned H = 0; H != metric::NumHists; ++H) {
      const HistShard &HS = Sh.Hists[H];
      MetricsSnapshot::HistData &D = Snap.Hists[H];
      D.Count += HS.Count.load(std::memory_order_relaxed);
      D.Sum += HS.Sum.load(std::memory_order_relaxed);
      uint64_t M = HS.Max.load(std::memory_order_relaxed);
      if (M > D.Max)
        D.Max = M;
      for (unsigned B = 0; B != metric::HistBuckets; ++B)
        D.Buckets[B] += HS.Buckets[B].load(std::memory_order_relaxed);
    }
  }
  return Snap;
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

void MetricsSnapshot::merge(const MetricsSnapshot &Other) {
  for (unsigned C = 0; C != metric::NumCounters; ++C)
    Counters[C] += Other.Counters[C];
  for (unsigned G = 0; G != metric::NumGauges; ++G)
    if (Other.Gauges[G] > Gauges[G])
      Gauges[G] = Other.Gauges[G];
  for (unsigned H = 0; H != metric::NumHists; ++H) {
    HistData &D = Hists[H];
    const HistData &O = Other.Hists[H];
    D.Count += O.Count;
    D.Sum += O.Sum;
    if (O.Max > D.Max)
      D.Max = O.Max;
    for (unsigned B = 0; B != metric::HistBuckets; ++B)
      D.Buckets[B] += O.Buckets[B];
  }
}

std::string MetricsSnapshot::renderText() const {
  std::string Out;
  char Buf[160];
  for (unsigned C = 0; C != metric::NumCounters; ++C) {
    if (Counters[C] == 0)
      continue;
    std::snprintf(Buf, sizeof(Buf), "%-32s %llu\n",
                  metric::name(metric::Counter(C)),
                  (unsigned long long)Counters[C]);
    Out += Buf;
  }
  for (unsigned G = 0; G != metric::NumGauges; ++G) {
    if (Gauges[G] == 0)
      continue;
    std::snprintf(Buf, sizeof(Buf), "%-32s %llu\n",
                  metric::name(metric::Gauge(G)),
                  (unsigned long long)Gauges[G]);
    Out += Buf;
  }
  for (unsigned H = 0; H != metric::NumHists; ++H) {
    const HistData &D = Hists[H];
    if (D.Count == 0)
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "%-32s count=%llu sum=%llu mean=%llu max=%llu\n",
                  metric::name(metric::Hist(H)), (unsigned long long)D.Count,
                  (unsigned long long)D.Sum,
                  (unsigned long long)(D.Sum / D.Count),
                  (unsigned long long)D.Max);
    Out += Buf;
  }
  return Out;
}

std::vector<std::pair<std::string, uint64_t>> MetricsSnapshot::flatten() const {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (unsigned C = 0; C != metric::NumCounters; ++C)
    if (Counters[C] != 0)
      Out.emplace_back(metric::name(metric::Counter(C)), Counters[C]);
  for (unsigned G = 0; G != metric::NumGauges; ++G)
    if (Gauges[G] != 0)
      Out.emplace_back(metric::name(metric::Gauge(G)), Gauges[G]);
  for (unsigned H = 0; H != metric::NumHists; ++H) {
    const HistData &D = Hists[H];
    if (D.Count == 0)
      continue;
    std::string Base = metric::name(metric::Hist(H));
    Out.emplace_back(Base + ".count", D.Count);
    Out.emplace_back(Base + ".sum", D.Sum);
    Out.emplace_back(Base + ".max", D.Max);
  }
  return Out;
}
