//===- tests/GoldenReportTest.cpp - Pinned report texts --------*- C++ -*-===//
//
// Part of lalrcex.
//
// Full-report golden tests: the exact CUP-style text (paper Fig. 11) for
// the paper's worked examples. These pin the user-visible output format —
// any intentional change must update the goldens.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "cache/AnalysisCache.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace lalrcex;

namespace {

std::string reportFor(const std::string &Corpus, const std::string &Token) {
  BuiltGrammar B = BuiltGrammar::fromCorpus(Corpus);
  CounterexampleFinder Finder(B.T);
  Symbol T = B.G.symbolByName(Token);
  for (const Conflict &C : B.T.reportedConflicts())
    if (C.Token == T)
      return Finder.render(Finder.examine(C));
  ADD_FAILURE() << "no conflict under " << Token << " in " << Corpus;
  return "";
}

TEST(GoldenReportTest, Figure11PlusConflict) {
  // The paper's Figure 11, with our state numbering and the advisor hint.
  EXPECT_EQ(reportFor("expr_prec_unresolved", "PLUS"),
            "Warning : *** Shift/Reduce conflict found in state #4\n"
            "  between reduction on expr ::= expr PLUS expr •\n"
            "  and shift on expr ::= expr • PLUS expr\n"
            "  under symbol PLUS\n"
            "  Ambiguity detected for nonterminal expr\n"
            "  Example: expr PLUS expr • PLUS expr\n"
            "  Derivation using reduction:\n"
            "    expr ::= [expr ::= [expr PLUS expr •] PLUS expr]\n"
            "  Derivation using shift:\n"
            "    expr ::= [expr PLUS expr ::= [expr • PLUS expr]]\n"
            "  Hint: declare the associativity of PLUS (e.g. %left PLUS) "
            "so the parser knows how to group chains of it\n");
}

TEST(GoldenReportTest, DanglingElse) {
  std::string R = reportFor("figure1", "else");
  EXPECT_NE(R.find("Warning : *** Shift/Reduce conflict"),
            std::string::npos);
  EXPECT_NE(
      R.find("  between reduction on stmt ::= if expr then stmt •\n"),
      std::string::npos);
  EXPECT_NE(R.find("  and shift on stmt ::= if expr then stmt • else "
                   "stmt\n"),
            std::string::npos);
  EXPECT_NE(R.find("  Ambiguity detected for nonterminal stmt\n"),
            std::string::npos);
  EXPECT_NE(
      R.find(
          "  Example: if expr then if expr then stmt • else stmt\n"),
      std::string::npos);
  EXPECT_NE(R.find("  Hint: the rule stmt ::= if expr then stmt is a "
                   "prefix of"),
            std::string::npos);
}

TEST(GoldenReportTest, ChallengingConflictExampleString) {
  // §3.1: the counterexample an experienced designer needed a while to
  // find by hand.
  std::string R = reportFor("figure1", "digit");
  EXPECT_NE(R.find("Example: expr '?' arr '[' expr ']' ':=' num • "
                   "digit digit '?' stmt stmt\n"),
            std::string::npos)
      << R;
}

TEST(GoldenReportTest, NonunifyingFigure3) {
  EXPECT_EQ(reportFor("figure3", "a"),
            "Warning : *** Shift/Reduce conflict found in state #1\n"
            "  between reduction on X ::= a •\n"
            "  and shift on Y ::= a • a b\n"
            "  under symbol a\n"
            "  No unifying counterexample: the conflict is not an "
            "ambiguity (within the default search)\n"
            "  First  example: a • a\n"
            "  Derivation using reduction:\n"
            "    S ::= [S ::= [T ::= [X ::= [a] •]] T ::= [X ::= "
            "[a]]]\n"
            "  Second example: a • a b T\n"
            "  Derivation using shift:\n"
            "    S ::= [S ::= [T ::= [Y ::= [a • a b]]] T]\n");
}

/// Full-corpus snapshot equality through the cache: for every corpus
/// grammar, the rendered report text must be identical between a cold run
/// and warm runs at Jobs 1 and 4. This pins the entire user-visible
/// output surface across the persistence layer — any serialization field
/// that fails to round-trip shows up as a render diff here.
class CorpusGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(CorpusGoldenTest, WarmRenderMatchesCold) {
  const CorpusEntry &E = corpus()[size_t(GetParam())];
  std::string Dir = ::testing::TempDir() + "lalrcex_golden_" +
                    std::to_string(GetParam());
  std::filesystem::remove_all(Dir);
  BuiltGrammar B = BuiltGrammar::fromCorpus(E.Name);

  // Deterministic budgets (step caps only) so cold output is repeatable
  // and the full corpus stays fast.
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 20'000;
  Opts.CachePath = Dir;
  Opts.Jobs = 1;

  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  ASSERT_FALSE(Cold.cacheActivity().ReportsFromCache) << E.Name;
  std::string ColdText;
  for (const ConflictReport &R : ColdReports)
    ColdText += Cold.render(R);

  for (unsigned Jobs : {1u, 4u}) {
    FinderOptions WarmOpts = Opts;
    WarmOpts.Jobs = Jobs;
    CounterexampleFinder Warm(B.T, WarmOpts);
    std::vector<ConflictReport> WarmReports = Warm.examineAll();
    EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache)
        << E.Name << " Jobs=" << Jobs;
    ASSERT_EQ(WarmReports.size(), ColdReports.size()) << E.Name;
    std::string WarmText;
    for (const ConflictReport &R : WarmReports)
      WarmText += Warm.render(R);
    EXPECT_EQ(WarmText, ColdText)
        << E.Name << ": warm render diverges at Jobs=" << Jobs;
  }
  std::filesystem::remove_all(Dir);
}

TEST_P(CorpusGoldenTest, InnerJobsRenderByteIdenticalColdAndWarm) {
  // Full-corpus byte-identity across worker counts. Every unifying search
  // runs serially inside one conflict worker (the name predates that), so
  // the only parallelism left is between conflicts: cold runs at Jobs
  // 1/2/8 must render the exact same text on every grammar shape in the
  // corpus, and a warm run at another Jobs count must serve the serially
  // written cache blobs verbatim — Jobs is excluded from the cache
  // fingerprint precisely because reports cannot depend on it.
  const CorpusEntry &E = corpus()[size_t(GetParam())];
  std::string Dir = ::testing::TempDir() + "lalrcex_jobs_" +
                    std::to_string(GetParam());
  std::filesystem::remove_all(Dir);
  BuiltGrammar B = BuiltGrammar::fromCorpus(E.Name);

  // Step caps only (no wall clocks), small enough that even the
  // never-exhausting synthetic grammars stay quick at every job count.
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 5'000;

  std::string ColdText;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    FinderOptions ColdOpts = Opts;
    ColdOpts.Jobs = Jobs;
    if (Jobs == 1)
      ColdOpts.CachePath = Dir; // the serial run seeds the cache
    CounterexampleFinder Cold(B.T, ColdOpts);
    std::vector<ConflictReport> Reports = Cold.examineAll();
    ASSERT_EQ(Reports.size(), B.T.reportedConflicts().size()) << E.Name;
    std::string Text;
    for (const ConflictReport &R : Reports)
      Text += Cold.render(R);
    if (Jobs == 1)
      ColdText = Text;
    else
      EXPECT_EQ(Text, ColdText)
          << E.Name << ": cold render diverges at Jobs=" << Jobs;
  }

  FinderOptions WarmOpts = Opts;
  WarmOpts.Jobs = 8;
  WarmOpts.CachePath = Dir;
  CounterexampleFinder Warm(B.T, WarmOpts);
  std::vector<ConflictReport> WarmReports = Warm.examineAll();
  EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache) << E.Name;
  std::string WarmText;
  for (const ConflictReport &R : WarmReports)
    WarmText += Warm.render(R);
  EXPECT_EQ(WarmText, ColdText)
      << E.Name << ": warm render diverges at Jobs=8";
  std::filesystem::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusGoldenTest,
                         ::testing::Range(0, int(corpus().size())));

TEST(GoldenReportTest, MergeArtifactNote) {
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : q A y | q B z | r A z | r B y ;
A : x ;
B : x ;
)");
  CounterexampleFinder Finder(B.T);
  std::string R = Finder.render(Finder.examine(B.T.reportedConflicts()[0]));
  EXPECT_NE(R.find("  Note: no context for the second reduction was found "
                   "that shares the reduction's shortest lookahead-sensitive "
                   "prefix"),
            std::string::npos)
      << R;
}

} // namespace
