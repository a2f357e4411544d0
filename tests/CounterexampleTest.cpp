//===- tests/CounterexampleTest.cpp - End-to-end engine tests --*- C++ -*-===//
//
// Part of lalrcex.
//
// Reproduces the paper's worked examples: the dangling-else conflict
// (Fig. 2/5), the precedence conflict (§2.4, Fig. 11), the challenging
// conflict (§3.1), the LR(2) grammar (Fig. 3), and the grammar where the
// shortest lookahead-sensitive path fails for one conflict (Fig. 7).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace lalrcex;

namespace {

std::string yield1(const BuiltGrammar &B, const ConflictReport &R) {
  return R.Example ? R.Example->exampleString1(B.G) : "<none>";
}

TEST(CounterexampleTest, DanglingElseUnifying) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  CounterexampleFinder Finder(B.T);

  Symbol Else = B.G.symbolByName("else");
  ASSERT_TRUE(Else.valid());

  bool FoundDanglingElse = false;
  for (const Conflict &C : B.T.reportedConflicts()) {
    if (C.Token != Else)
      continue;
    FoundDanglingElse = true;
    ConflictReport R = Finder.examine(C);
    ASSERT_EQ(R.Status, CounterexampleStatus::UnifyingFound)
        << Finder.render(R);
    ASSERT_TRUE(R.Example);
    expectCounterexampleWellFormed(B.G, *R.Example, C.Token);
    EXPECT_EQ(B.G.name(R.Example->Root), "stmt");
    EXPECT_EQ(R.Example->exampleString1(B.G),
              "if expr then if expr then stmt \xE2\x80\xA2 else stmt")
        << Finder.render(R);
  }
  EXPECT_TRUE(FoundDanglingElse);
}

TEST(CounterexampleTest, PlusAssociativityUnifying) {
  // Section 2.4 / Figure 11: expr PLUS expr • PLUS expr, a derivation of
  // expr (the innermost ambiguous nonterminal), not of the start symbol.
  BuiltGrammar B = BuiltGrammar::fromCorpus("expr_prec_unresolved");
  CounterexampleFinder Finder(B.T);

  ASSERT_EQ(B.T.reportedConflicts().size(), 1u);
  ConflictReport R = Finder.examine(B.T.reportedConflicts()[0]);
  ASSERT_EQ(R.Status, CounterexampleStatus::UnifyingFound)
      << Finder.render(R);
  expectCounterexampleWellFormed(B.G, *R.Example,
                                 B.T.reportedConflicts()[0].Token);
  EXPECT_EQ(B.G.name(R.Example->Root), "expr");
  EXPECT_EQ(R.Example->exampleString1(B.G),
            "expr PLUS expr \xE2\x80\xA2 PLUS expr");
}

TEST(CounterexampleTest, ChallengingConflictUnifying) {
  // Section 3.1: the num/expr conflict under digit. The unifying
  // counterexample needs stage-3/4 work across two statements.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  CounterexampleFinder Finder(B.T);

  Symbol Digit = B.G.symbolByName("digit");
  ASSERT_TRUE(Digit.valid());

  bool Found = false;
  for (const Conflict &C : B.T.reportedConflicts()) {
    if (C.Token != Digit)
      continue;
    Found = true;
    ConflictReport R = Finder.examine(C);
    ASSERT_TRUE(R.Example) << Finder.render(R);
    expectCounterexampleWellFormed(B.G, *R.Example, C.Token);
    EXPECT_EQ(R.Status, CounterexampleStatus::UnifyingFound)
        << Finder.render(R);
    EXPECT_EQ(B.G.name(R.Example->Root), "stmt") << Finder.render(R);
  }
  EXPECT_TRUE(Found);
}

TEST(CounterexampleTest, Figure3NonunifyingOnly) {
  // The grammar is LR(2) and unambiguous: the unifying search must
  // exhaust and a nonunifying counterexample is reported.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  CounterexampleFinder Finder(B.T);

  ASSERT_EQ(B.T.reportedConflicts().size(), 1u);
  const Conflict C = B.T.reportedConflicts()[0];
  ConflictReport R = Finder.examine(C);
  EXPECT_EQ(R.Status, CounterexampleStatus::NonunifyingComplete)
      << Finder.render(R);
  ASSERT_TRUE(R.Example);
  EXPECT_FALSE(R.Example->Unifying);
  expectCounterexampleWellFormed(B.G, *R.Example, C.Token);
}

TEST(CounterexampleTest, Figure7BothConflictsUnifying) {
  // Table 1: figure7 has 2 conflicts, both with unifying counterexamples.
  // One of them requires reverse transitions beyond the obvious prefix
  // (the paper's motivating example for outward search).
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure7");
  FinderOptions Opts;
  Opts.ExtendedSearch = true; // allow off-path reverse transitions
  CounterexampleFinder Finder(B.T, Opts);

  ASSERT_EQ(B.T.reportedConflicts().size(), 2u);
  for (const Conflict &C : B.T.reportedConflicts()) {
    ConflictReport R = Finder.examine(C);
    ASSERT_TRUE(R.Example) << Finder.render(R);
    expectCounterexampleWellFormed(B.G, *R.Example, C.Token);
    EXPECT_EQ(R.Status, CounterexampleStatus::UnifyingFound)
        << Finder.render(R);
    // Both conflicts unify at S (the two parses split N/c differently, so
    // N itself derives different substrings); the paper's examples
    // "n a • b c" and "n n a • b d c" are reproduced.
    EXPECT_TRUE(B.G.isNonterminal(R.Example->Root));
  }
}

TEST(CounterexampleTest, Figure7ReproducesPaperExamples) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure7");
  CounterexampleFinder Finder(B.T);
  std::vector<std::string> Examples;
  for (const Conflict &C : B.T.reportedConflicts()) {
    ConflictReport R = Finder.examine(C);
    ASSERT_TRUE(R.Example);
    Examples.push_back(R.Example->exampleString1(B.G));
  }
  ASSERT_EQ(Examples.size(), 2u);
  std::sort(Examples.begin(), Examples.end());
  EXPECT_EQ(Examples[0], "n a \xE2\x80\xA2 b c");
  EXPECT_EQ(Examples[1], "n n a \xE2\x80\xA2 b d c");
}

TEST(CounterexampleTest, AmbfailedNeedsExtendedSearch) {
  // ambfailed01 reproduces the §7.2 failure mode: the grammar is
  // ambiguous, but the default search (restricted to the states of the
  // shortest lookahead-sensitive path) cannot find the unifying
  // counterexample; -extendedsearch does.
  BuiltGrammar B = BuiltGrammar::fromCorpus("ambfailed01");
  ASSERT_EQ(B.T.reportedConflicts().size(), 1u);
  const Conflict C = B.T.reportedConflicts()[0];

  CounterexampleFinder Default(B.T);
  ConflictReport R1 = Default.examine(C);
  EXPECT_EQ(R1.Status, CounterexampleStatus::NonunifyingComplete)
      << Default.render(R1);
  ASSERT_TRUE(R1.Example);
  expectCounterexampleWellFormed(B.G, *R1.Example, C.Token);

  FinderOptions Opts;
  Opts.ExtendedSearch = true;
  CounterexampleFinder Extended(B.T, Opts);
  ConflictReport R2 = Extended.examine(C);
  EXPECT_EQ(R2.Status, CounterexampleStatus::UnifyingFound)
      << Extended.render(R2);
  ASSERT_TRUE(R2.Example);
  expectCounterexampleWellFormed(B.G, *R2.Example, C.Token);
  EXPECT_EQ(R2.Example->exampleString1(B.G), "r r a \xE2\x80\xA2 b");
}

TEST(CounterexampleTest, ReduceReduceUnifying) {
  // A classic ambiguous reduce/reduce conflict: two nonterminals deriving
  // the same string.
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : a X | b X ;
a : W ;
b : W ;
)");
  CounterexampleFinder Finder(B.T);
  ASSERT_EQ(B.T.reportedConflicts().size(), 1u);
  const Conflict C = B.T.reportedConflicts()[0];
  ASSERT_EQ(C.K, Conflict::ReduceReduce);
  ConflictReport R = Finder.examine(C);
  ASSERT_TRUE(R.Example) << Finder.render(R);
  expectCounterexampleWellFormed(B.G, *R.Example, C.Token);
  EXPECT_EQ(R.Status, CounterexampleStatus::UnifyingFound)
      << Finder.render(R);
  EXPECT_EQ(B.G.name(R.Example->Root), "s") << yield1(B, R);
}

TEST(CounterexampleTest, UnambiguousReduceReduceNonunifying) {
  // LR(2), unambiguous, with a reduce/reduce conflict: a X c vs b Y c
  // where X and Y derive the same terminal.
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : a C | b D ;
a : W ;
b : W ;
)");
  CounterexampleFinder Finder(B.T);
  ASSERT_EQ(B.T.reportedConflicts().size(), 0u);
  // No conflict at all: lookaheads C vs D are disjoint. Make them clash:
  BuiltGrammar B2 = BuiltGrammar::fromText(R"(
%%
s : a C | b C D ;
a : W ;
b : W ;
)");
  CounterexampleFinder Finder2(B2.T);
  ASSERT_EQ(B2.T.reportedConflicts().size(), 1u);
  const Conflict C = B2.T.reportedConflicts()[0];
  ConflictReport R = Finder2.examine(C);
  ASSERT_TRUE(R.Example) << Finder2.render(R);
  EXPECT_EQ(R.Status, CounterexampleStatus::NonunifyingComplete)
      << Finder2.render(R);
  expectCounterexampleWellFormed(B2.G, *R.Example, C.Token);
}

TEST(CounterexampleTest, ExamineAllCoversEveryReportedConflict) {
  for (const char *Name : {"figure1", "figure3", "figure7"}) {
    BuiltGrammar B = BuiltGrammar::fromCorpus(Name);
    CounterexampleFinder Finder(B.T);
    std::vector<ConflictReport> Reports = Finder.examineAll();
    EXPECT_EQ(Reports.size(), B.T.reportedConflicts().size());
    for (const ConflictReport &R : Reports) {
      ASSERT_TRUE(R.Example) << Name << ": " << Finder.render(R);
      expectCounterexampleWellFormed(B.G, *R.Example, R.TheConflict.Token);
    }
  }
}

// ---- Budgets and graceful degradation ---------------------------------

Conflict elseConflict(const BuiltGrammar &B) {
  Symbol Else = B.G.symbolByName("else");
  for (const Conflict &C : B.T.reportedConflicts())
    if (C.Token == Else)
      return C;
  ADD_FAILURE() << "no else conflict";
  return B.T.conflicts().front();
}

TEST(CounterexampleTest, ExpiredDeadlineDegradesToNonunifying) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = -1; // pre-expired: deterministic timeout
  CounterexampleFinder Finder(B.T, Opts);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::NonunifyingTimeout);
  ASSERT_TRUE(R.UnifyingOutcome.has_value());
  EXPECT_EQ(*R.UnifyingOutcome, UnifyingStatus::TimedOut);
  ASSERT_TRUE(R.Example) << "timeout must still yield the nonunifying rung";
  EXPECT_FALSE(R.Example->Unifying);
  expectCounterexampleWellFormed(B.G, *R.Example, R.TheConflict.Token);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::Deadline);
  EXPECT_EQ(R.Failure->Stage, "unifying-search");
}

TEST(CounterexampleTest, StepBudgetDegradesToNonunifying) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.MaxConfigurations = 1;
  CounterexampleFinder Finder(B.T, Opts);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::NonunifyingTimeout);
  ASSERT_TRUE(R.UnifyingOutcome.has_value());
  EXPECT_EQ(*R.UnifyingOutcome, UnifyingStatus::LimitHit);
  ASSERT_TRUE(R.Example);
  EXPECT_FALSE(R.Example->Unifying);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::StepLimit);
}

TEST(CounterexampleTest, MemoryBudgetDegradesToNonunifying) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.MemoryLimitBytes = 1; // first admitted configuration trips it
  CounterexampleFinder Finder(B.T, Opts);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::NonunifyingTimeout);
  ASSERT_TRUE(R.UnifyingOutcome.has_value());
  EXPECT_EQ(*R.UnifyingOutcome, UnifyingStatus::MemoryLimit);
  EXPECT_GT(R.PeakBytes, 0u);
  ASSERT_TRUE(R.Example);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::MemoryLimit);
}

TEST(CounterexampleTest, PreCancelledTokenYieldsBareReports) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.Cancellation.cancel();
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  // Cancellation never reduces the report count: one bare report each.
  ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
  for (const ConflictReport &R : Reports) {
    EXPECT_EQ(R.Status, CounterexampleStatus::Cancelled);
    EXPECT_FALSE(R.Example);
    ASSERT_TRUE(R.Failure.has_value());
    EXPECT_EQ(R.Failure->K, FailureReason::Cancelled);
    // render() must still produce the bare item-pair description.
    std::string Text = Finder.render(R);
    EXPECT_NE(Text.find("conflict found in state #"), std::string::npos);
    EXPECT_NE(Text.find("cancelled"), std::string::npos);
  }
}

TEST(CounterexampleTest, CumulativeStepBudgetSwitchesToNonunifyingOnly) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.CumulativeMaxConfigurations = 1; // trips while scanning conflicts
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
  ASSERT_GT(Reports.size(), 1u);
  unsigned DegradedByCumulative = 0;
  for (const ConflictReport &R : Reports) {
    // Nobody gets the unifying rung, but everyone still gets an example.
    EXPECT_NE(R.Status, CounterexampleStatus::UnifyingFound);
    ASSERT_TRUE(R.Example) << Finder.render(R);
    EXPECT_FALSE(R.Example->Unifying);
    if (R.Failure && R.Failure->Stage == "cumulative-budget") {
      ++DegradedByCumulative;
      EXPECT_EQ(R.Failure->K, FailureReason::StepLimit);
    }
  }
  EXPECT_GT(DegradedByCumulative, 0u);
  EXPECT_EQ(Finder.cumulativeGuard().stopped(), GuardStop::StepLimit);
}

TEST(CounterexampleTest, CumulativeExpiredDeadlineStillReportsEveryConflict) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.CumulativeTimeLimitSeconds = -1; // pre-expired
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
  for (const ConflictReport &R : Reports) {
    EXPECT_NE(R.Status, CounterexampleStatus::UnifyingFound);
    ASSERT_TRUE(R.Example) << Finder.render(R);
  }
  EXPECT_EQ(Finder.cumulativeGuard().stopped(), GuardStop::Deadline);
}

TEST(CounterexampleTest, WallBudgetsBeyondTheClockNeverExpire) {
  // A budget too large for the clock's integer nanoseconds, +infinity
  // included, must mean "no deadline", not an already-expired one.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  const double Inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> Budgets[] = {
      {1e300, 0}, {Inf, 0}, {5.0, 1e300}}; // per-conflict, cumulative
  for (auto [PerConflict, Cumulative] : Budgets) {
    FinderOptions Opts;
    Opts.ConflictTimeLimitSeconds = PerConflict;
    Opts.CumulativeTimeLimitSeconds = Cumulative;
    CounterexampleFinder Finder(B.T, Opts);
    std::vector<ConflictReport> Reports = Finder.examineAll();
    ASSERT_EQ(Reports.size(), 3u);
    for (const ConflictReport &R : Reports)
      EXPECT_EQ(R.Status, CounterexampleStatus::UnifyingFound)
          << "per-conflict " << PerConflict << ", cumulative " << Cumulative
          << "\n"
          << Finder.render(R);
  }
}

TEST(CounterexampleTest, MalformedConflictFailsGracefully) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  CounterexampleFinder Finder(B.T);

  // Out-of-range production index.
  Conflict BadProd = B.T.reportedConflicts()[0];
  BadProd.ReduceProd = 1u << 20;
  ConflictReport R1 = Finder.examine(BadProd);
  EXPECT_EQ(R1.Status, CounterexampleStatus::Failed);
  EXPECT_FALSE(R1.Example);
  ASSERT_TRUE(R1.Failure.has_value());
  EXPECT_EQ(R1.Failure->Stage, "conflict-setup");

  // Out-of-range state.
  Conflict BadState = B.T.reportedConflicts()[0];
  BadState.State = 1u << 20;
  ConflictReport R2 = Finder.examine(BadState);
  EXPECT_EQ(R2.Status, CounterexampleStatus::Failed);
  ASSERT_TRUE(R2.Failure.has_value());
  EXPECT_EQ(R2.Failure->Stage, "conflict-setup");

  // render() on a degraded report must not crash and names the reason.
  std::string Text = Finder.render(R2);
  EXPECT_NE(Text.find("internal-error"), std::string::npos);
}

TEST(CounterexampleTest, ExamineAllNeverLosesReportsUnderAnyBudget) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  const size_t Expected = B.T.reportedConflicts().size();
  FinderOptions Variants[5];
  Variants[1].ConflictTimeLimitSeconds = -1;
  Variants[2].MaxConfigurations = 0;
  Variants[3].CumulativeMaxConfigurations = 0;
  Variants[4].MemoryLimitBytes = 0;
  for (FinderOptions &Opts : Variants) {
    CounterexampleFinder Finder(B.T, Opts);
    EXPECT_EQ(Finder.examineAll().size(), Expected);
  }
}

// ---- Parallelism: determinism across job counts -----------------------

// Every report field that must not depend on the job count. Seconds is
// wall clock and legitimately varies, so it is excluded.
std::string deterministicKey(const CounterexampleFinder &Finder,
                             const ConflictReport &R) {
  std::string Key = Finder.render(R);
  Key += "|status=" + std::to_string(int(R.Status));
  Key += "|configs=" + std::to_string(R.Configurations);
  Key += "|peak=" + std::to_string(R.PeakBytes);
  Key += "|unif=";
  Key += R.UnifyingOutcome ? std::to_string(int(*R.UnifyingOutcome)) : "-";
  if (R.Failure) {
    Key += "|fail=";
    Key += FailureReason::kindName(R.Failure->K);
    Key += "@" + R.Failure->Stage;
  }
  return Key;
}

TEST(CounterexampleTest, ExamineAllDeterministicAcrossJobCounts) {
  // With wall-clock deadlines disabled, every budget is deterministic:
  // the report sequence must be identical whatever the worker count.
  for (const char *Name : {"figure1", "xi"}) {
    BuiltGrammar B = BuiltGrammar::fromCorpus(Name);
    FinderOptions Base;
    Base.ConflictTimeLimitSeconds = 0;
    Base.CumulativeTimeLimitSeconds = 0;
    Base.MaxConfigurations = 20'000; // caps xi's hardest conflicts
    std::vector<std::string> Expected;
    for (unsigned Jobs : {1u, 2u, 8u}) {
      FinderOptions Opts = Base;
      Opts.Jobs = Jobs;
      CounterexampleFinder Finder(B.T, Opts);
      std::vector<ConflictReport> Reports = Finder.examineAll();
      ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
      std::vector<std::string> Keys;
      for (const ConflictReport &R : Reports)
        Keys.push_back(deterministicKey(Finder, R));
      if (Jobs == 1)
        Expected = Keys;
      else
        EXPECT_EQ(Keys, Expected) << Name << " with Jobs=" << Jobs;
    }
  }
}

TEST(CounterexampleTest, ExamineAllDeterministicAcrossRunsAndJobCounts) {
  // Each unifying search runs serially on whichever conflict worker picks
  // it up, so repeated runs at any worker count — including more workers
  // than conflicts — must leave the report sequence bit-identical to the
  // first serial run.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Base;
  Base.ConflictTimeLimitSeconds = 0;
  Base.CumulativeTimeLimitSeconds = 0;
  Base.MaxConfigurations = 20'000;
  std::vector<std::string> Expected;
  for (unsigned Jobs : {1u, 2u, 4u}) {
    for (unsigned Run = 0; Run != 2; ++Run) {
      FinderOptions Opts = Base;
      Opts.Jobs = Jobs;
      CounterexampleFinder Finder(B.T, Opts);
      std::vector<ConflictReport> Reports = Finder.examineAll();
      ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
      std::vector<std::string> Keys;
      for (const ConflictReport &R : Reports)
        Keys.push_back(deterministicKey(Finder, R));
      if (Expected.empty())
        Expected = Keys;
      else
        EXPECT_EQ(Keys, Expected) << "Jobs=" << Jobs << " run " << Run;
    }
  }
}

TEST(CounterexampleTest, CumulativeStepTripSameKindAcrossJobCounts) {
  // A cumulative step budget that trips during the conflict scan must
  // degrade every report with the same FailureReason kind regardless of
  // how many workers examineAll uses.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  for (unsigned Jobs : {1u, 2u, 8u}) {
    FinderOptions Opts;
    Opts.ConflictTimeLimitSeconds = 0;
    Opts.CumulativeTimeLimitSeconds = 0;
    Opts.CumulativeMaxConfigurations = 1;
    Opts.Jobs = Jobs;
    CounterexampleFinder Finder(B.T, Opts);
    std::vector<ConflictReport> Reports = Finder.examineAll();
    ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
    unsigned Degraded = 0;
    for (const ConflictReport &R : Reports) {
      EXPECT_NE(R.Status, CounterexampleStatus::UnifyingFound);
      ASSERT_TRUE(R.Example) << Finder.render(R);
      if (R.Failure && R.Failure->Stage == "cumulative-budget") {
        EXPECT_EQ(R.Failure->K, FailureReason::StepLimit);
        ++Degraded;
      }
    }
    EXPECT_GT(Degraded, 0u) << "Jobs=" << Jobs;
    EXPECT_EQ(Finder.cumulativeGuard().stopped(), GuardStop::StepLimit);
  }
}

#if defined(LALRCEX_FAULT_INJECTION)

// ---- Fault injection: forced failures at every pipeline stage ---------

TEST(CounterexampleTest, InjectedAllocFailureInUnifyingSearch) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  CounterexampleFinder Finder(B.T);
  faults::ScopedFault F(faults::Kind::BadAllocAtStep, 1);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::Failed);
  ASSERT_TRUE(R.UnifyingOutcome.has_value());
  EXPECT_EQ(*R.UnifyingOutcome, UnifyingStatus::Error);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::AllocationFailure);
  EXPECT_EQ(R.Failure->Stage, "unifying-search");
  // Best-effort fallback: the nonunifying rung still produced an example.
  ASSERT_TRUE(R.Example);
  EXPECT_FALSE(R.Example->Unifying);
}

TEST(CounterexampleTest, InjectedCorruptSuccessorRecovered) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  CounterexampleFinder Finder(B.T);
  faults::ScopedFault F(faults::Kind::CorruptSuccessorAtStep, 1);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::Failed);
  ASSERT_TRUE(R.UnifyingOutcome.has_value());
  EXPECT_EQ(*R.UnifyingOutcome, UnifyingStatus::Error);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::InternalError);
  EXPECT_FALSE(R.Failure->Detail.empty());
  ASSERT_TRUE(R.Example); // nonunifying fallback still works
}

TEST(CounterexampleTest, InjectedLssFailureDegradesToBareReport) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  CounterexampleFinder Finder(B.T);
  faults::ScopedFault F(faults::Kind::LssPathFailure);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::Failed);
  EXPECT_FALSE(R.Example); // no path: both fallback rungs unavailable
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::PathUnavailable);
  EXPECT_EQ(R.Failure->Stage, "lss-path");
}

TEST(CounterexampleTest, InjectedNonunifyingAllocFailure) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.UnifyingEnabled = false; // go straight to the builder
  CounterexampleFinder Finder(B.T, Opts);
  faults::ScopedFault F(faults::Kind::NonunifyingBadAlloc);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::Failed);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::AllocationFailure);
  EXPECT_EQ(R.Failure->Stage, "nonunifying-builder");
}

TEST(CounterexampleTest, InjectedNonunifyingErrorRecovered) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.UnifyingEnabled = false;
  CounterexampleFinder Finder(B.T, Opts);
  faults::ScopedFault F(faults::Kind::NonunifyingError);
  ConflictReport R = Finder.examine(elseConflict(B));
  EXPECT_EQ(R.Status, CounterexampleStatus::Failed);
  ASSERT_TRUE(R.Failure.has_value());
  EXPECT_EQ(R.Failure->K, FailureReason::InternalError);
  EXPECT_EQ(R.Failure->Stage, "nonunifying-builder");
}

TEST(CounterexampleTest, InjectedFaultsAreOneShotAcrossExamineAll) {
  // A single armed fault degrades exactly one conflict; the rest of the
  // run proceeds normally and no report is lost.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  CounterexampleFinder Finder(B.T);
  faults::ScopedFault F(faults::Kind::BadAllocAtStep, 1);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
  unsigned Failed = 0;
  for (const ConflictReport &R : Reports)
    if (R.Status == CounterexampleStatus::Failed)
      ++Failed;
  EXPECT_EQ(Failed, 1u);
}

TEST(CounterexampleTest, InjectedAllocFailureDegradesOneConflictInPool) {
  // With a worker pool, a forced bad_alloc still degrades exactly one
  // conflict (the fault is an atomic one-shot); every other report is
  // healthy and none is lost.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.Jobs = 4;
  CounterexampleFinder Finder(B.T, Opts);
  faults::ScopedFault F(faults::Kind::BadAllocAtStep, 1);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
  unsigned Failed = 0;
  for (const ConflictReport &R : Reports) {
    if (R.Status == CounterexampleStatus::Failed) {
      ++Failed;
      ASSERT_TRUE(R.Failure.has_value());
      EXPECT_EQ(R.Failure->K, FailureReason::AllocationFailure);
    } else {
      EXPECT_TRUE(R.Example) << Finder.render(R);
    }
  }
  EXPECT_EQ(Failed, 1u);
}

TEST(CounterexampleTest, InjectedCancellationInPoolNeverDeadlocks) {
  // A cancellation injected into one worker's guard poll must not hang
  // the pool: examineAll returns a full report sequence, the cancelled
  // conflict is marked as such, and the rest complete normally.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts;
  Opts.Jobs = 4;
  CounterexampleFinder Finder(B.T, Opts);
  // Step 40 sits below the first cumulative poll window, so the fault
  // fires on one search-local guard (polling at WallPollPeriod = 64).
  faults::ScopedFault F(faults::Kind::CancelAtStep, 40);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size());
  unsigned Cancelled = 0;
  for (const ConflictReport &R : Reports) {
    if (R.Status == CounterexampleStatus::Cancelled) {
      ++Cancelled;
      ASSERT_TRUE(R.Failure.has_value());
      EXPECT_EQ(R.Failure->K, FailureReason::Cancelled);
    } else {
      EXPECT_TRUE(R.Example) << Finder.render(R);
    }
  }
  EXPECT_LE(Cancelled, 1u);
}

#endif // LALRCEX_FAULT_INJECTION

TEST(CounterexampleTest, RenderMatchesFigure11Shape) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("expr_prec_unresolved");
  CounterexampleFinder Finder(B.T);
  ConflictReport R = Finder.examine(B.T.reportedConflicts()[0]);
  std::string Text = Finder.render(R);
  EXPECT_NE(Text.find("Shift/Reduce conflict found in state #"),
            std::string::npos);
  EXPECT_NE(Text.find("between reduction on expr ::= expr PLUS expr"),
            std::string::npos);
  EXPECT_NE(Text.find("under symbol PLUS"), std::string::npos);
  EXPECT_NE(Text.find("Ambiguity detected for nonterminal expr"),
            std::string::npos);
  EXPECT_NE(Text.find("Example: expr PLUS expr \xE2\x80\xA2 PLUS expr"),
            std::string::npos);
  EXPECT_NE(Text.find("Derivation using reduction:"), std::string::npos);
  EXPECT_NE(Text.find("Derivation using shift:"), std::string::npos);
}

} // namespace
