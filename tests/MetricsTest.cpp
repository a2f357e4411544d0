//===- tests/MetricsTest.cpp - Metrics registry + trace spans --*- C++ -*-===//
//
// Part of lalrcex.
//
// Covers the observability layer on its own (counter/gauge/histogram
// semantics, sharded-merge correctness under concurrent writers, span
// nesting and ring-buffer wrap, exporter JSON shape) and end-to-end: a
// finder run with Jobs = 4 must fill every pipeline stage's metrics and
// produce a well-formed Chrome trace, and the registry must never change
// the reports themselves.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace lalrcex;

namespace {

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricsRegistry Reg;
  MetricsSnapshot Empty = Reg.snapshot();
  for (unsigned C = 0; C != metric::NumCounters; ++C)
    EXPECT_EQ(Empty.Counters[C], 0u);

  Reg.add(metric::LssSearches);
  Reg.add(metric::LssSearches, 4);
  Reg.gaugeMax(metric::ExamineWorkers, 3);
  Reg.gaugeMax(metric::ExamineWorkers, 7);
  Reg.gaugeMax(metric::ExamineWorkers, 5); // lower: must not regress

  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter(metric::LssSearches), 5u);
  EXPECT_EQ(S.gauge(metric::ExamineWorkers), 7u);
  EXPECT_EQ(S.counter(metric::UnifyingSearches), 0u);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  // bucketOf: 0 -> bucket 0, otherwise bit_width (2^(i-1) <= v < 2^i).
  EXPECT_EQ(MetricsRegistry::bucketOf(0), 0u);
  EXPECT_EQ(MetricsRegistry::bucketOf(1), 1u);
  EXPECT_EQ(MetricsRegistry::bucketOf(2), 2u);
  EXPECT_EQ(MetricsRegistry::bucketOf(3), 2u);
  EXPECT_EQ(MetricsRegistry::bucketOf(4), 3u);
  EXPECT_EQ(MetricsRegistry::bucketOf(UINT64_MAX), 64u);

  MetricsRegistry Reg;
  Reg.observe(metric::TimeLssNs, 0);
  Reg.observe(metric::TimeLssNs, 3);
  Reg.observe(metric::TimeLssNs, 100);

  MetricsSnapshot Snap = Reg.snapshot();
  const MetricsSnapshot::HistData &D = Snap.hist(metric::TimeLssNs);
  EXPECT_EQ(D.Count, 3u);
  EXPECT_EQ(D.Sum, 103u);
  EXPECT_EQ(D.Max, 100u);
  EXPECT_EQ(D.Buckets[0], 1u);                           // the zero
  EXPECT_EQ(D.Buckets[2], 1u);                           // 3
  EXPECT_EQ(D.Buckets[MetricsRegistry::bucketOf(100)], 1u);
}

TEST(MetricsTest, ShardedConcurrentWritersSumExactly) {
  // Many threads hammer one registry; the snapshot must account for every
  // single increment no matter how threads were spread over the shards.
  MetricsRegistry Reg;
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&Reg] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        Reg.add(metric::UnifyingConfigurations);
        Reg.observe(metric::EffortConflictConfigurations, I & 0xff);
        Reg.gaugeMax(metric::UnifyingPeakBytes, I);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter(metric::UnifyingConfigurations), Threads * PerThread);
  EXPECT_EQ(S.hist(metric::EffortConflictConfigurations).Count,
            Threads * PerThread);
  EXPECT_EQ(S.gauge(metric::UnifyingPeakBytes), PerThread - 1);
  uint64_t BucketTotal = 0;
  for (unsigned B = 0; B != metric::HistBuckets; ++B)
    BucketTotal += S.hist(metric::EffortConflictConfigurations).Buckets[B];
  EXPECT_EQ(BucketTotal, Threads * PerThread);
}

TEST(MetricsTest, SnapshotMergeAddsCountersAndMaxesGauges) {
  MetricsRegistry A, B;
  A.add(metric::CacheHits, 2);
  A.gaugeMax(metric::ExamineWorkers, 4);
  A.observe(metric::TimeConflictNs, 10);
  B.add(metric::CacheHits, 3);
  B.gaugeMax(metric::ExamineWorkers, 2);
  B.observe(metric::TimeConflictNs, 30);

  MetricsSnapshot M = A.snapshot();
  M.merge(B.snapshot());
  EXPECT_EQ(M.counter(metric::CacheHits), 5u);
  EXPECT_EQ(M.gauge(metric::ExamineWorkers), 4u);
  EXPECT_EQ(M.hist(metric::TimeConflictNs).Count, 2u);
  EXPECT_EQ(M.hist(metric::TimeConflictNs).Sum, 40u);
  EXPECT_EQ(M.hist(metric::TimeConflictNs).Max, 30u);
}

TEST(MetricsTest, RenderAndFlattenSkipZeroEntries) {
  MetricsRegistry Reg;
  Reg.add(metric::GraphBuilds);
  Reg.observe(metric::TimeGraphBuildNs, 7);

  MetricsSnapshot S = Reg.snapshot();
  std::string Text = S.renderText();
  EXPECT_NE(Text.find("graph.builds"), std::string::npos);
  EXPECT_NE(Text.find("time.graph_build_ns"), std::string::npos);
  EXPECT_EQ(Text.find("lss.searches"), std::string::npos); // zero: omitted

  auto Flat = S.flatten();
  ASSERT_EQ(Flat.size(), 4u); // counter + hist {count,sum,max}
  EXPECT_EQ(Flat[0].first, "graph.builds");
  EXPECT_EQ(Flat[0].second, 1u);
  EXPECT_EQ(Flat[1].first, "time.graph_build_ns.count");
  EXPECT_EQ(Flat[2].first, "time.graph_build_ns.sum");
  EXPECT_EQ(Flat[2].second, 7u);
  EXPECT_EQ(Flat[3].first, "time.graph_build_ns.max");
}

TEST(MetricsTest, ScopedTimerIsNullSafeAndIdempotent) {
  { ScopedTimer T(nullptr, metric::TimeLssNs); } // must not crash

  MetricsRegistry Reg;
  {
    ScopedTimer T(&Reg, metric::TimeLssNs);
    T.stop();
    T.stop(); // second stop must not double-record
  }
  EXPECT_EQ(Reg.snapshot().hist(metric::TimeLssNs).Count, 1u);
}

TEST(MetricsTest, GuardOvershootObservedOncePerStoppedSearch) {
  // time.guard_overshoot_ns gets one observation per unifying search that
  // a guard stopped, and none for a search that ended on its own.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  auto examineUnder = [&](const std::string &Token) {
    MetricsRegistry Reg;
    FinderOptions Opts;
    Opts.Jobs = 1;
    Opts.ConflictTimeLimitSeconds = 0;
    Opts.MaxConfigurations = 500;
    Opts.Metrics = &Reg;
    CounterexampleFinder Finder(B.T, Opts);
    Symbol T = B.G.symbolByName(Token);
    for (const Conflict &C : B.T.reportedConflicts()) {
      if (C.Token == T) {
        Finder.examine(C);
        break;
      }
    }
    return Reg.snapshot();
  };

  // The §3.1 challenging conflict needs ~9k configurations: the step
  // budget stops it.
  MetricsSnapshot Stopped = examineUnder("digit");
  EXPECT_EQ(Stopped.counter(metric::UnifyingSearches), 1u);
  EXPECT_EQ(Stopped.counter(metric::UnifyingBudgetStops), 1u);
  EXPECT_EQ(Stopped.counter(metric::GuardTripsStepLimit), 1u);
  EXPECT_EQ(Stopped.hist(metric::TimeGuardOvershootNs).Count, 1u);

  MetricsSnapshot Found = examineUnder("else");
  EXPECT_EQ(Found.counter(metric::UnifyingFound), 1u);
  EXPECT_EQ(Found.hist(metric::TimeGuardOvershootNs).Count, 0u);
}

TEST(MetricsTest, SaturatedPopsCountConfigurationsNotExpanded) {
  // unifying.saturated_pops counts the configurations a search popped and
  // goal-tested but did not expand, because its queue already held every
  // configuration its step budget could still pop. sql.y's seven searches
  // at 5,000 configurations saturate at pops 2,390 and 2,428 (the two
  // reduce/reduce conflicts) and 3,912 to 3,918 (the five shift/reduce
  // ones).
  auto examineAllUnder = [](Grammar G, size_t MaxConfigurations) {
    BuiltGrammar B(std::move(G));
    MetricsRegistry Reg;
    FinderOptions Opts;
    Opts.Jobs = 1;
    Opts.ConflictTimeLimitSeconds = 0;
    Opts.MaxConfigurations = MaxConfigurations;
    Opts.Metrics = &Reg;
    CounterexampleFinder(B.T, Opts).examineAll();
    return Reg.snapshot();
  };

  std::ifstream In(std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/sql.y",
                   std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::optional<Grammar> Sql = parseGrammar(Buf.str()).G;
  ASSERT_TRUE(Sql);
  MetricsSnapshot S = examineAllUnder(std::move(*Sql), 5000);
  EXPECT_EQ(S.counter(metric::UnifyingSearches), 7u);
  EXPECT_EQ(S.counter(metric::UnifyingConfigurations), 35000u);
  EXPECT_EQ(S.counter(metric::UnifyingBudgetStops), 7u);
  EXPECT_EQ(S.counter(metric::UnifyingSaturatedPops), 10613u);

  // figure1's three searches, the digit one included, all find their
  // examples well within the default budget.
  MetricsSnapshot Figure1 = examineAllUnder(
      loadCorpusGrammar("figure1"), FinderOptions().MaxConfigurations);
  EXPECT_EQ(Figure1.counter(metric::UnifyingFound), 3u);
  EXPECT_EQ(Figure1.counter(metric::UnifyingSaturatedPops), 0u);
}

TEST(TraceTest, SpanNestingLinksParents) {
  TraceRecorder Rec;
  {
    TraceSpan Outer(&Rec, "outer");
    {
      TraceSpan Inner(&Rec, "inner", 3);
      EXPECT_NE(Inner.id(), Outer.id());
    }
    TraceSpan Sibling(&Rec, "sibling");
    (void)Sibling;
  }
  std::vector<TraceRecorder::Event> Events = Rec.events();
  ASSERT_EQ(Events.size(), 3u);
  // Spans record on destruction: inner first, outer last.
  const TraceRecorder::Event &Inner = Events[0];
  const TraceRecorder::Event &Sibling = Events[1];
  const TraceRecorder::Event &Outer = Events[2];
  EXPECT_STREQ(Inner.Name, "inner");
  EXPECT_STREQ(Outer.Name, "outer");
  EXPECT_EQ(Inner.Parent, Outer.Id);
  EXPECT_EQ(Sibling.Parent, Outer.Id);
  EXPECT_EQ(Outer.Parent, 0u);
  EXPECT_EQ(Inner.ConflictId, 3);
  EXPECT_EQ(Outer.ConflictId, -1);
  EXPECT_EQ(Rec.dropped(), 0u);

  // Null recorder: spans are no-ops with id 0.
  TraceSpan Null(nullptr, "nothing");
  EXPECT_EQ(Null.id(), 0u);
}

TEST(TraceTest, RingBufferWrapsAndCountsDropped) {
  TraceRecorder Rec(4);
  for (int I = 0; I != 10; ++I)
    TraceSpan S(&Rec, "span");
  std::vector<TraceRecorder::Event> Events = Rec.events();
  EXPECT_EQ(Events.size(), 4u);
  EXPECT_EQ(Rec.dropped(), 6u);
  // Oldest-first: surviving ids are the last four spans, in order.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LT(Events[I - 1].Id, Events[I].Id);
}

/// Minimal JSON well-formedness checker — enough to catch unbalanced
/// structure, bad escapes, and trailing garbage in the exporter output.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}
  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == '-' || (C >= '0' && C <= '9'))
      return number();
    if (S.compare(Pos, 4, "true") == 0)
      return Pos += 4, true;
    if (S.compare(Pos, 5, "false") == 0)
      return Pos += 5, true;
    if (S.compare(Pos, 4, "null") == 0)
      return Pos += 4, true;
    return false;
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      return Pos < S.size() && S[Pos] == '}' ? (++Pos, true) : false;
    }
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      return Pos < S.size() && S[Pos] == ']' ? (++Pos, true) : false;
    }
  }
  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos;
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }
  void skipWs() {
    while (Pos < S.size() &&
           (S[Pos] == ' ' || S[Pos] == '\t' || S[Pos] == '\n' ||
            S[Pos] == '\r'))
      ++Pos;
  }

  const std::string &S;
  size_t Pos = 0;
};

TEST(TraceTest, ChromeJsonIsWellFormed) {
  TraceRecorder Rec;
  {
    TraceSpan A(&Rec, "phase-with-\"quotes\"-and-\\slashes");
    TraceSpan B(&Rec, "child", 42);
  }
  std::string Json = Rec.toChromeJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"conflict\":42"), std::string::npos);
}

TEST(MetricsPipelineTest, FinderFillsEveryStageUnderJobs4) {
  // End-to-end: a parallel examineAll over a real corpus grammar must
  // leave non-zero evidence for every pipeline stage, and the registry
  // must not change the reports.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");

  FinderOptions Plain;
  Plain.Jobs = 1;
  CounterexampleFinder Baseline(B.T, Plain);
  std::vector<ConflictReport> Expected = Baseline.examineAll();

  MetricsRegistry Reg;
  TraceRecorder Trace;
  FinderOptions Opts;
  Opts.Jobs = 4;
  Opts.Metrics = &Reg;
  Opts.Trace = &Trace;
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();

  ASSERT_EQ(Reports.size(), Expected.size());
  for (size_t I = 0; I != Reports.size(); ++I) {
    EXPECT_EQ(Reports[I].Status, Expected[I].Status);
    EXPECT_EQ(Finder.render(Reports[I]), Baseline.render(Expected[I]));
  }

  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter(metric::GraphBuilds), 1u);
  EXPECT_GT(S.counter(metric::GraphNodes), 0u);
  EXPECT_GT(S.counter(metric::GraphEdges), 0u);
  EXPECT_EQ(S.counter(metric::ExamineRuns), 1u);
  EXPECT_EQ(S.counter(metric::ExamineConflicts), Reports.size());
  EXPECT_GE(S.counter(metric::LssSearches), Reports.size());
  EXPECT_GT(S.counter(metric::LssExpanded), 0u);
  EXPECT_GE(S.counter(metric::UnifyingSearches), 1u);
  EXPECT_GT(S.counter(metric::UnifyingConfigurations), 0u);
  EXPECT_GT(S.counter(metric::UnifyingQueuePushes), 0u);
  EXPECT_GT(S.counter(metric::UnifyingQueuePops), 0u);
  EXPECT_GE(S.gauge(metric::ExamineWorkers), 1u);
  EXPECT_EQ(S.hist(metric::TimeExamineAllNs).Count, 1u);
  EXPECT_EQ(S.hist(metric::TimeConflictNs).Count, Reports.size());
  EXPECT_GE(S.hist(metric::TimeLssNs).Count, Reports.size());
  EXPECT_GE(S.hist(metric::TimeUnifyingNs).Count, 1u);
  EXPECT_EQ(S.hist(metric::EffortConflictConfigurations).Count,
            uint64_t(S.counter(metric::UnifyingSearches)));

  // The trace must cover the run and the per-conflict phases, and it must
  // serialize to well-formed Chrome JSON even with 4 worker threads.
  std::vector<TraceRecorder::Event> Events = Trace.events();
  bool SawRun = false, SawConflict = false, SawLss = false;
  for (const TraceRecorder::Event &E : Events) {
    SawRun |= std::string(E.Name) == "examine-all";
    SawConflict |= std::string(E.Name) == "conflict";
    SawLss |= std::string(E.Name) == "lss";
  }
  EXPECT_TRUE(SawRun);
  EXPECT_TRUE(SawConflict);
  EXPECT_TRUE(SawLss);
  EXPECT_TRUE(JsonChecker(Trace.toChromeJson()).valid());
}

TEST(MetricsPipelineTest, AnalysisAndAutomatonInstrumented) {
  MetricsRegistry Reg;
  TraceRecorder Trace;
  Grammar G = loadCorpusGrammar("figure1");
  GrammarAnalysis A(G, &Reg, &Trace);
  AutomatonOptions MO;
  MO.Metrics = &Reg;
  MO.Trace = &Trace;
  Automaton M(G, A, MO);

  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter(metric::AnalysisRuns), 1u);
  EXPECT_GT(S.counter(metric::AnalysisNullablePasses), 0u);
  EXPECT_GT(S.counter(metric::AnalysisFirstPasses), 0u);
  EXPECT_EQ(S.counter(metric::AutomatonBuilds), 1u);
  EXPECT_EQ(S.counter(metric::AutomatonStates), M.numStates());
  EXPECT_GT(S.counter(metric::AutomatonClosureItems), 0u);
  EXPECT_GT(S.counter(metric::AutomatonNtTransitions), 0u);
  EXPECT_GT(S.counter(metric::AutomatonRelationEdges), 0u);
  EXPECT_EQ(S.hist(metric::TimeAnalysisNs).Count, 1u);
  EXPECT_EQ(S.hist(metric::TimeAutomatonNs).Count, 1u);

  bool SawAnalysis = false, SawAutomaton = false;
  for (const TraceRecorder::Event &E : Trace.events()) {
    SawAnalysis |= std::string(E.Name) == "analysis";
    SawAutomaton |= std::string(E.Name) == "automaton";
  }
  EXPECT_TRUE(SawAnalysis);
  EXPECT_TRUE(SawAutomaton);
}

TEST(MetricsPipelineTest, GuardTripsAreCountedExactlyOnce) {
  // An already-expired deadline trips the unifying guard on every
  // conflict; each trip must bump guard.trips.deadline exactly once.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  MetricsRegistry Reg;
  FinderOptions Opts;
  Opts.Jobs = 1;
  Opts.Metrics = &Reg;
  Opts.ConflictTimeLimitSeconds = -1.0; // deterministic expiry
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();

  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter(metric::GuardTripsDeadline), Reports.size());
  EXPECT_EQ(S.counter(metric::UnifyingBudgetStops), Reports.size());
}

} // namespace
