//===- tests/UnifyingSearchTest.cpp - Search internals ---------*- C++ -*-===//
//
// Part of lalrcex.
//
// Unit tests targeting the product-parser search directly: option limits,
// the shortest-path restriction, dot placement, stage behavior, and the
// item-sequence arena against a vector model.
//
//===----------------------------------------------------------------------===//

#include "counterexample/UnifyingSearch.h"

#include "counterexample/ItemStackArena.h"
#include "support/Metrics.h"

#include "RandomGrammar.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>

using namespace lalrcex;

namespace {

struct ConflictFixture {
  BuiltGrammar B;
  StateItemGraph Graph;
  Conflict C;
  StateItemGraph::NodeId ReduceNode;
  StateItemGraph::NodeId OtherNode;
  std::optional<LssPath> Path;

  ConflictFixture(const std::string &Corpus, const std::string &Token)
      : ConflictFixture(loadCorpusGrammar(Corpus), Token) {}

  /// The first reported conflict of \p InG under terminal \p Token.
  ConflictFixture(Grammar InG, const std::string &Token)
      : B(std::move(InG)), Graph(B.M) {
    Symbol T = B.G.symbolByName(Token);
    bool Found = false;
    for (const Conflict &Cand : B.T.reportedConflicts()) {
      if (Cand.Token == T) {
        C = Cand;
        Found = true;
        break;
      }
    }
    EXPECT_TRUE(Found) << "no conflict under " << Token;
    ReduceNode = Graph.nodeFor(C.State, C.reduceItem(B.G));
    if (C.K == Conflict::ShiftReduce)
      OtherNode = Graph.nodeFor(C.State, C.ShiftItm);
    else
      OtherNode = Graph.nodeFor(
          C.State,
          Item(C.OtherProd, uint32_t(B.G.production(C.OtherProd).Rhs.size())));
    Path = shortestLookaheadSensitivePath(Graph, ReduceNode, C.Token);
    EXPECT_TRUE(Path.has_value());
  }
};

TEST(UnifyingSearchTest, FindsDanglingElse) {
  ConflictFixture S("figure1", "else");
  UnifyingSearch Search(S.Graph);
  UnifyingResult R = Search.search(S.ReduceNode, S.OtherNode, S.C.Token,
                                   &*S.Path, UnifyingOptions());
  ASSERT_EQ(R.Status, UnifyingStatus::Found);
  ASSERT_TRUE(R.Example);
  EXPECT_TRUE(R.Example->Unifying);
  EXPECT_GT(R.ConfigurationsExplored, 0u);
  // The dot sits immediately before the conflict terminal.
  int DotPos = -1;
  std::vector<Symbol> Yield = yieldOf(R.Example->Derivs1, &DotPos);
  ASSERT_GE(DotPos, 0);
  ASSERT_LT(size_t(DotPos), Yield.size());
  EXPECT_EQ(Yield[size_t(DotPos)], S.C.Token);
}

TEST(UnifyingSearchTest, ConfigurationLimitReturnsLimitHit) {
  ConflictFixture S("figure1", "else");
  UnifyingSearch Search(S.Graph);
  UnifyingOptions Opts;
  Opts.MaxConfigurations = 1;
  UnifyingResult R =
      Search.search(S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, Opts);
  EXPECT_EQ(R.Status, UnifyingStatus::LimitHit);
  EXPECT_FALSE(R.Example);
}

TEST(UnifyingSearchTest, ExpiredDeadlineTimesOutDeterministically) {
  ConflictFixture S("figure1", "else");
  UnifyingSearch Search(S.Graph);
  UnifyingOptions Opts;
  // Negative budget = already-expired deadline: the first poll trips it,
  // with no dependence on machine speed.
  Opts.TimeLimitSeconds = -1;
  UnifyingResult R =
      Search.search(S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, Opts);
  EXPECT_EQ(R.Status, UnifyingStatus::TimedOut);
  EXPECT_FALSE(R.Example);
}

TEST(UnifyingSearchTest, TinyMemoryBudgetStopsSearch) {
  ConflictFixture S("figure1", "else");
  UnifyingSearch Search(S.Graph);
  UnifyingOptions Opts;
  Opts.MemoryLimitBytes = 1; // the first admitted configuration trips it
  UnifyingResult R =
      Search.search(S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, Opts);
  EXPECT_EQ(R.Status, UnifyingStatus::MemoryLimit);
  EXPECT_FALSE(R.Example);
  EXPECT_GT(R.PeakBytes, 0u);
}

TEST(UnifyingSearchTest, PreCancelledTokenStopsSearch) {
  ConflictFixture S("figure1", "else");
  UnifyingSearch Search(S.Graph);
  UnifyingOptions Opts;
  Opts.Cancellation.cancel();
  UnifyingResult R =
      Search.search(S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, Opts);
  EXPECT_EQ(R.Status, UnifyingStatus::Cancelled);
  EXPECT_FALSE(R.Example);
}

TEST(UnifyingSearchTest, MalformedInputsReturnErrorNotCrash) {
  ConflictFixture S("figure1", "else");
  UnifyingSearch Search(S.Graph);

  // Out-of-range conflicting node.
  UnifyingResult BadOther =
      Search.search(S.ReduceNode, StateItemGraph::NodeId(S.Graph.numNodes()),
                    S.C.Token, &*S.Path, UnifyingOptions());
  EXPECT_EQ(BadOther.Status, UnifyingStatus::Error);
  EXPECT_EQ(BadOther.Message,
            "unifying search: conflicting node out of range");
  EXPECT_FALSE(BadOther.BadAlloc);

  // Out-of-range reduce node.
  UnifyingResult BadNode =
      Search.search(StateItemGraph::NodeId(S.Graph.numNodes()), S.OtherNode,
                    S.C.Token, &*S.Path, UnifyingOptions());
  EXPECT_EQ(BadNode.Status, UnifyingStatus::Error);

  // A node whose item is not a completed reduction.
  StateItemGraph::NodeId NotReduce = StateItemGraph::InvalidNode;
  for (StateItemGraph::NodeId N = 0; N != S.Graph.numNodes(); ++N) {
    if (!S.Graph.itemOf(N).atEnd(S.B.G)) {
      NotReduce = N;
      break;
    }
  }
  ASSERT_NE(NotReduce, StateItemGraph::InvalidNode);
  UnifyingResult NotAtEnd = Search.search(NotReduce, S.OtherNode, S.C.Token,
                                          &*S.Path, UnifyingOptions());
  EXPECT_EQ(NotAtEnd.Status, UnifyingStatus::Error);
}

TEST(UnifyingSearchTest, ExhaustsOnUnambiguousLr2Conflict) {
  ConflictFixture S("figure3", "a");
  UnifyingSearch Search(S.Graph);
  UnifyingResult R = Search.search(S.ReduceNode, S.OtherNode, S.C.Token,
                                   &*S.Path, UnifyingOptions());
  EXPECT_EQ(R.Status, UnifyingStatus::Exhausted);
}

TEST(UnifyingSearchTest, RestrictionBlocksOffPathAmbiguity) {
  // ambfailed01: restricted search exhausts; extended search finds the
  // off-path unifying counterexample (paper §6 tradeoff).
  ConflictFixture S("ambfailed01", "b");
  UnifyingSearch Search(S.Graph);

  UnifyingResult Restricted = Search.search(
      S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, UnifyingOptions());
  EXPECT_EQ(Restricted.Status, UnifyingStatus::Exhausted);

  UnifyingOptions Extended;
  Extended.ExtendedSearch = true;
  UnifyingResult Full = Search.search(S.ReduceNode, S.OtherNode, S.C.Token,
                                      &*S.Path, Extended);
  ASSERT_EQ(Full.Status, UnifyingStatus::Found);
  expectCounterexampleWellFormed(S.B.G, *Full.Example, S.C.Token);
}

/// The full example shape of a search result (yields, dot position,
/// derivation renderings); empty when there is no example.
std::string exampleKey(const BuiltGrammar &B, const UnifyingResult &R) {
  std::ostringstream OS;
  if (R.Example) {
    OS << '|' << R.Example->exampleString1(B.G) << '|'
       << R.Example->exampleString2(B.G);
    for (const DerivPtr &D : R.Example->Derivs1)
      OS << '|' << D->toString(B.G);
    for (const DerivPtr &D : R.Example->Derivs2)
      OS << '|' << D->toString(B.G);
  }
  return OS.str();
}

/// Flattens everything deterministic about a search result into one
/// comparable string: status, work accounting, and the example. Wall-clock
/// never appears, so equal keys mean byte-identical downstream reports.
std::string resultKey(const BuiltGrammar &B, const UnifyingResult &R) {
  std::ostringstream OS;
  OS << int(R.Status) << '|' << R.ConfigurationsExplored << '|'
     << R.PeakBytes << '|' << R.Message << '|' << R.BadAlloc
     << exampleKey(B, R);
  return OS.str();
}


/// Runs the search the way a conflict worker of examineAll does: on its
/// own thread, with that thread's graph touch recorder active.
UnifyingResult searchOnWorker(const ConflictFixture &S,
                              const UnifyingOptions &Opts) {
  UnifyingResult R;
  std::thread Worker([&] {
    GraphTouchRecorder Recorder(S.Graph.numNodes());
    ScopedGraphTouchRecorder Scope(&Recorder);
    R = UnifyingSearch(S.Graph).search(S.ReduceNode, S.OtherNode, S.C.Token,
                                       &*S.Path, Opts);
  });
  Worker.join();
  return R;
}

// Each search is serial; the only concurrency left is which conflict
// worker runs it. Each test below checks that a search on a worker thread
// reproduces the calling thread's search byte for byte, under the outcome
// its name describes.

TEST(UnifyingSearchTest, WorkerThreadMatchesCallerOnChallengingConflict) {
  // The §3.1 challenging conflict explores ~9k configurations with wide
  // Dial buckets.
  ConflictFixture S("figure1", "digit");
  UnifyingResult Serial = UnifyingSearch(S.Graph).search(
      S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, UnifyingOptions());
  ASSERT_EQ(Serial.Status, UnifyingStatus::Found);
  std::string Expected = resultKey(S.B, Serial);
  for (unsigned Run = 0; Run != 2; ++Run)
    EXPECT_EQ(resultKey(S.B, searchOnWorker(S, UnifyingOptions())), Expected)
        << "worker run " << Run;
}

TEST(UnifyingSearchTest, WorkerThreadMatchesCallerWhenExhausted) {
  // Exhaustion must happen after exactly the same number of
  // configurations wherever the search runs.
  ConflictFixture S("figure3", "a");
  UnifyingResult Serial = UnifyingSearch(S.Graph).search(
      S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, UnifyingOptions());
  EXPECT_EQ(Serial.Status, UnifyingStatus::Exhausted);
  UnifyingResult Worker = searchOnWorker(S, UnifyingOptions());
  EXPECT_EQ(Worker.Status, UnifyingStatus::Exhausted);
  EXPECT_EQ(resultKey(S.B, Worker), resultKey(S.B, Serial));
}

TEST(UnifyingSearchTest, WorkerThreadMatchesCallerAtConfigurationLimit) {
  // A step limit must fire at exactly the same configuration wherever
  // the search runs.
  ConflictFixture S("figure1", "digit");
  UnifyingOptions Opts;
  Opts.MaxConfigurations = 500;
  UnifyingResult Serial = UnifyingSearch(S.Graph).search(
      S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, Opts);
  EXPECT_EQ(Serial.Status, UnifyingStatus::LimitHit);
  UnifyingResult Worker = searchOnWorker(S, Opts);
  EXPECT_EQ(Worker.Status, UnifyingStatus::LimitHit);
  EXPECT_EQ(resultKey(S.B, Worker), resultKey(S.B, Serial));
}

TEST(UnifyingSearchTest, WorkerThreadMatchesCallerWithDefaultOptions) {
  // Default options need no worker count: the dangling-else search on a
  // worker thread matches the calling thread's bit for bit.
  ConflictFixture S("figure1", "else");
  UnifyingResult Serial = UnifyingSearch(S.Graph).search(
      S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, UnifyingOptions());
  UnifyingResult R = searchOnWorker(S, UnifyingOptions());
  ASSERT_EQ(R.Status, UnifyingStatus::Found);
  EXPECT_EQ(resultKey(S.B, R), resultKey(S.B, Serial));
}

TEST(UnifyingSearchTest, WorkerThreadPreCancelledStopsWithoutHanging) {
  // A token cancelled before the search starts stops the search on the
  // worker at its first poll, and the worker joins.
  ConflictFixture S("figure1", "digit");
  UnifyingOptions Opts;
  Opts.Cancellation.cancel();
  UnifyingResult R = searchOnWorker(S, Opts);
  EXPECT_EQ(R.Status, UnifyingStatus::Cancelled);
  EXPECT_FALSE(R.Example);
}

/// Reads and parses one of the imported grammars in examples/grammars.
std::optional<Grammar> loadExampleGrammar(const std::string &Name) {
  std::ifstream In(std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/" + Name,
                   std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return parseGrammar(Buf.str()).G;
}

TEST(UnifyingSearchTest, PinnedWorkAndPeakBytes) {
  // The exact work and accounted bytes of five searches on deterministic
  // budgets (no wall clock): a Found, an Exhausted, and three step-limited
  // searches. The configuration counts and examples move only when the
  // exploration order or the set of keys the visited set treats as equal
  // changes, and every rendered report shows them. PeakBytes moves with
  // the byte charges (48 bytes per item-sequence entry, 40 per alias, 76
  // per admitted configuration) and with the number of entries and aliases
  // a search creates; it is cached in .rep blobs, and a byte budget
  // stops a search at it. A step-limited search charges only what it built
  // before it saturated, so the last three also pin where saturation
  // fires (sql.y's state-417 search at pop 2,390 of 5,000).
  auto Run = [](const ConflictFixture &S, size_t MaxConfigurations) {
    UnifyingOptions Opts;
    Opts.TimeLimitSeconds = 0;
    Opts.MaxConfigurations = MaxConfigurations;
    return UnifyingSearch(S.Graph).search(S.ReduceNode, S.OtherNode,
                                          S.C.Token, &*S.Path, Opts);
  };
  const size_t DefaultSteps = UnifyingOptions().MaxConfigurations;

  {
    ConflictFixture S("figure1", "digit");
    UnifyingResult R = Run(S, DefaultSteps);
    ASSERT_EQ(R.Status, UnifyingStatus::Found);
    EXPECT_EQ(R.ConfigurationsExplored, 9161u);
    EXPECT_EQ(R.PeakBytes, 1473156u);
    ASSERT_TRUE(R.Example);
    EXPECT_EQ(R.Example->exampleString1(S.B.G),
              "expr '?' arr '[' expr ']' ':=' num \xE2\x80\xA2 digit digit "
              "'?' stmt stmt");
  }
  {
    ConflictFixture S("figure3", "a");
    UnifyingResult R = Run(S, DefaultSteps);
    EXPECT_EQ(R.Status, UnifyingStatus::Exhausted);
    EXPECT_EQ(R.ConfigurationsExplored, 26u);
    EXPECT_EQ(R.PeakBytes, 4112u);
  }
  {
    ConflictFixture S("stackovf10", "plus");
    EXPECT_EQ(S.C.State, 6u);
    UnifyingResult R = Run(S, 5000);
    EXPECT_EQ(R.Status, UnifyingStatus::LimitHit);
    EXPECT_EQ(R.ConfigurationsExplored, 5000u);
    EXPECT_EQ(R.PeakBytes, 738092u);
  }
  {
    std::optional<Grammar> Sql = loadExampleGrammar("sql.y");
    ASSERT_TRUE(Sql);
    ConflictFixture S(std::move(*Sql), "ON");
    EXPECT_EQ(S.C.State, 621u);
    UnifyingResult R = Run(S, 2000);
    EXPECT_EQ(R.Status, UnifyingStatus::LimitHit);
    EXPECT_EQ(R.ConfigurationsExplored, 2000u);
    EXPECT_EQ(R.PeakBytes, 392544u);
  }
  {
    std::optional<Grammar> Sql = loadExampleGrammar("sql.y");
    ASSERT_TRUE(Sql);
    ConflictFixture S(std::move(*Sql), "AND");
    EXPECT_EQ(S.C.State, 417u);
    EXPECT_EQ(S.C.K, Conflict::ReduceReduce);
    UnifyingResult R = Run(S, 5000);
    EXPECT_EQ(R.Status, UnifyingStatus::LimitHit);
    EXPECT_EQ(R.ConfigurationsExplored, 5000u);
    EXPECT_EQ(R.PeakBytes, 9811368u);
  }
}

TEST(UnifyingSearchTest, PinnedSequenceCounters) {
  // The item-sequence arena's work in two searches on deterministic
  // budgets: one entry per distinct sequence interned, and the hash
  // matches whose build had not been seen before and so needed a content
  // compare (sequences that prepends and pushes reach in either order).
  auto Counters = [](const ConflictFixture &S, size_t MaxConfigurations) {
    MetricsRegistry Metrics;
    UnifyingOptions Opts;
    Opts.TimeLimitSeconds = 0;
    Opts.MaxConfigurations = MaxConfigurations;
    Opts.Metrics = &Metrics;
    UnifyingSearch(S.Graph).search(S.ReduceNode, S.OtherNode, S.C.Token,
                                   &*S.Path, Opts);
    MetricsSnapshot Snap = Metrics.snapshot();
    return std::make_pair(
        Snap.counter(metric::UnifyingSequenceEntries),
        Snap.counter(metric::UnifyingSequenceCompares));
  };
  {
    std::optional<Grammar> Sql = loadExampleGrammar("sql.y");
    ASSERT_TRUE(Sql);
    ConflictFixture S(std::move(*Sql), "ON");
    EXPECT_EQ(S.C.State, 621u);
    EXPECT_EQ(Counters(S, 2000), std::make_pair(uint64_t(2551), uint64_t(2)));
  }
  {
    ConflictFixture S("figure1", "digit");
    EXPECT_EQ(Counters(S, UnifyingOptions().MaxConfigurations),
              std::make_pair(uint64_t(3336), uint64_t(8)));
  }
}

/// The steps of the prefix property's smaller budgets: 1 to 7, then
/// growing by half each time, below \p Max.
std::vector<size_t> prefixBudgets(size_t Max) {
  std::vector<size_t> Budgets;
  for (size_t B = 1; B < Max; B = B < 7 ? B + 1 : B + B / 2)
    Budgets.push_back(B);
  return Budgets;
}

/// Checks every reported conflict of \p InG, in default and extended
/// search: each run at a budget below \p Max must be the run at \p Max
/// cut off after that many pops. Counts the pairs compared in \p Pairs.
void checkBudgetPrefixes(Grammar InG, const std::string &Name, size_t Max,
                         size_t &Pairs) {
  BuiltGrammar B(std::move(InG));
  StateItemGraph Graph(B.M);
  UnifyingSearch Search(Graph);
  const std::vector<size_t> Budgets = prefixBudgets(Max);
  for (const Conflict &C : B.T.reportedConflicts()) {
    StateItemGraph::NodeId Reduce = Graph.nodeFor(C.State, C.reduceItem(B.G));
    StateItemGraph::NodeId Other =
        C.K == Conflict::ShiftReduce
            ? Graph.nodeFor(C.State, C.ShiftItm)
            : Graph.nodeFor(C.State,
                            Item(C.OtherProd,
                                 uint32_t(B.G.production(C.OtherProd)
                                              .Rhs.size())));
    std::optional<LssPath> Path =
        shortestLookaheadSensitivePath(Graph, Reduce, C.Token);
    if (!Path)
      continue;
    for (bool Extended : {false, true}) {
      UnifyingOptions Opts;
      Opts.TimeLimitSeconds = 0;
      Opts.ExtendedSearch = Extended;
      Opts.MaxConfigurations = Max;
      UnifyingResult Long = Search.search(Reduce, Other, C.Token, &*Path,
                                          Opts);
      const bool Ended = Long.Status == UnifyingStatus::Found ||
                         Long.Status == UnifyingStatus::Exhausted;
      ASSERT_TRUE(Ended || Long.Status == UnifyingStatus::LimitHit)
          << Name << ": " << C.describe(B.G) << ": " << Long.Message;
      for (size_t Budget : Budgets) {
        Opts.MaxConfigurations = Budget;
        UnifyingResult Short = Search.search(Reduce, Other, C.Token,
                                             &*Path, Opts);
        ++Pairs;
        std::string Context = Name + ": " + C.describe(B.G) +
                              (Extended ? " (extended)" : "") +
                              " at budget " + std::to_string(Budget);
        if (Ended && Long.ConfigurationsExplored <= Budget) {
          ASSERT_EQ(int(Short.Status), int(Long.Status)) << Context;
          ASSERT_EQ(Short.ConfigurationsExplored,
                    Long.ConfigurationsExplored)
              << Context;
          ASSERT_EQ(exampleKey(B, Short), exampleKey(B, Long)) << Context;
        } else {
          ASSERT_EQ(int(Short.Status), int(UnifyingStatus::LimitHit))
              << Context;
          ASSERT_EQ(Short.ConfigurationsExplored, Budget) << Context;
          ASSERT_FALSE(Short.Example) << Context;
        }
      }
    }
  }
}

TEST(UnifyingSearchTest, BudgetPrefixConsistency) {
  // The pop order of a search never depends on its step budget, so a run
  // stopped at budget B is the first B pops of any longer run: it must end
  // with the longer run's Found or Exhausted verdict, count and example
  // when that came within B configurations, and LimitHit at exactly B
  // otherwise. Over the corpus (Java.2 and worst-case-conflict are left to
  // the pinned tests: their searches are long) and random grammars.
  constexpr size_t Max = 1000;
  size_t Pairs = 0;
  for (const CorpusEntry &E : corpus()) {
    if (E.Name == "Java.2" || E.Name == "worst-case-conflict")
      continue;
    checkBudgetPrefixes(loadCorpusGrammar(E.Name), E.Name, Max, Pairs);
    if (HasFatalFailure())
      return;
  }
  for (uint64_t Seed = 23000; Seed != 23100; ++Seed) {
    std::string Text = lalrcex::testing::randomGrammarText(
        Seed, 4 + unsigned(Seed % 5), 3 + unsigned(Seed % 4));
    std::optional<Grammar> G = parseGrammarText(Text);
    ASSERT_TRUE(G) << Text;
    if (!GrammarAnalysis(*G).isProductive(G->startSymbol()))
      continue;
    checkBudgetPrefixes(std::move(*G), "seed " + std::to_string(Seed), Max,
                        Pairs);
    if (HasFatalFailure())
      return;
  }
  EXPECT_GT(Pairs, 20000u);
}

TEST(UnifyingSearchTest, LongProductionAmbiguityIsFound) {
  // s derives A^70000 B through `x B` and through `y`. Preparing x's
  // reduction prepends 70,000 reverse transitions to each side, and the
  // reduction then pops a 70,000-symbol right-hand side, a length that
  // does not fit in 16 bits. The 70,001-symbol sentence gets no Earley
  // check; the well-formedness check counts every node's children.
  std::string As;
  for (unsigned I = 0; I != 70000; ++I)
    As += " A";
  std::optional<Grammar> G =
      parseGrammar("%%\ns : x B | y ;\nx :" + As + " ;\ny :" + As + " B ;\n")
          .G;
  ASSERT_TRUE(G);
  ConflictFixture S(std::move(*G), "B");
  UnifyingOptions Opts;
  Opts.TimeLimitSeconds = 0;
  Opts.MaxConfigurations = 100000;
  Opts.MemoryLimitBytes = size_t(512) << 20;
  UnifyingResult R = UnifyingSearch(S.Graph).search(
      S.ReduceNode, S.OtherNode, S.C.Token, &*S.Path, Opts);
  ASSERT_EQ(R.Status, UnifyingStatus::Found);
  ASSERT_TRUE(R.Example);
  EXPECT_EQ(S.B.G.name(R.Example->Root), "s");
  EXPECT_EQ(yieldOf(R.Example->Derivs1).size(), 70001u);
  expectCounterexampleWellFormed(S.B.G, *R.Example, S.C.Token);
}

TEST(UnifyingSearchTest, ItemStackArenaMatchesVectorModel) {
  // Random pushes, prepends and pops, checked against std::vector: every
  // id reads back its model's nodes, equal contents share one id however
  // they were built, and different contents never share one.
  using namespace unifying_detail;
  constexpr NodeId Alphabet = 3; // small, so equal contents recur often
  ResourceGuard Guard;
  ItemStackArena A(Guard);
  std::map<std::vector<NodeId>, uint32_t> IdOf;
  std::map<uint32_t, std::vector<NodeId>> ContentsOf;
  auto Check = [&](uint32_t Id, const std::vector<NodeId> &M) {
    ASSERT_EQ(A.depth(Id), M.size());
    EXPECT_EQ(IdOf.emplace(M, Id).first->second, Id)
        << "equal contents got two ids";
    EXPECT_EQ(ContentsOf.emplace(Id, M).first->second, M)
        << "one id names two contents";
    if (M.empty())
      return;
    EXPECT_EQ(A.top(Id), M.back());
    EXPECT_EQ(A.front(Id), M.front());
    for (unsigned K = 0; K != M.size(); ++K)
      ASSERT_EQ(A.fromTop(Id, K), M[M.size() - 1 - K]) << "K = " << K;
    for (NodeId N = 0; N != Alphabet; ++N)
      EXPECT_EQ(A.contains(Id, N),
                std::find(M.begin(), M.end(), N) != M.end());
  };

  // The two build orders of one sequence.
  uint32_t S = A.push(A.push(NilChain, 0), 1);
  uint32_t Left = A.push(A.prepend(S, 2), 0);
  uint32_t Right = A.prepend(A.push(S, 0), 2);
  EXPECT_EQ(Left, Right);
  Check(Left, {2, 0, 1, 0});
  EXPECT_EQ(A.prepend(NilChain, 1), A.push(NilChain, 1));

  std::vector<std::pair<uint32_t, std::vector<NodeId>>> Seqs{{NilChain, {}}};
  std::mt19937 Rng(7);
  for (unsigned Op = 0; Op != 20000; ++Op) {
    auto [Id, M] = Seqs[Rng() % Seqs.size()];
    NodeId N = NodeId(Rng() % Alphabet);
    switch (M.size() >= 12 ? 2 : Rng() % 3) {
    case 0:
      Id = A.push(Id, N);
      M.push_back(N);
      break;
    case 1:
      Id = A.prepend(Id, N);
      M.insert(M.begin(), N);
      break;
    default: {
      unsigned K = unsigned(Rng() % (M.size() + 1));
      Id = A.popN(Id, K);
      M.resize(M.size() - K);
      break;
    }
    }
    Check(Id, M);
    if (HasFatalFailure())
      return;
    Seqs.emplace_back(Id, std::move(M));
  }
  // Pops re-link older entries; no id may change its contents.
  for (const auto &[Id, M] : Seqs) {
    Check(Id, M);
    if (HasFatalFailure())
      return;
  }
  EXPECT_GT(A.compares(), 0u);
}

TEST(UnifyingSearchTest, ItemStackArenaHashCollisionGetsItsOwnId) {
  // A Thue-Morse word of length 2^11 and its complement have the same
  // polynomial hash modulo 2^64 for every odd base, and the same depth:
  // the second one's probe meets the first one's slot, and only the
  // content compare keeps them apart.
  using namespace unifying_detail;
  ResourceGuard Guard;
  ItemStackArena A(Guard);
  constexpr unsigned Len = 1u << 11;
  auto Parity = [](unsigned I) { return NodeId(std::popcount(I) & 1); };
  uint32_t Word = NilChain, Complement = NilChain;
  for (unsigned I = 0; I != Len; ++I)
    Word = A.push(Word, 10 + Parity(I));
  size_t ComparesBefore = A.compares();
  for (unsigned I = 0; I != Len; ++I)
    Complement = A.push(Complement, 11 - Parity(I));
  EXPECT_GT(A.compares(), ComparesBefore);
  EXPECT_NE(Word, Complement);
  EXPECT_EQ(A.entries(), 2 * size_t(Len));
  for (unsigned K = 0; K != Len; ++K) {
    ASSERT_EQ(A.fromTop(Word, K), 10 + Parity(Len - 1 - K));
    ASSERT_EQ(A.fromTop(Complement, K), 11 - Parity(Len - 1 - K));
  }
}

TEST(UnifyingSearchTest, ReduceReduceDotAtEnd) {
  // A reduce/reduce ambiguity that unifies before consuming the conflict
  // terminal (the Pascal.5 shape: constants and variables both derive a
  // bare identifier): the dot must land at the end of the example.
  BuiltGrammar B = BuiltGrammar::fromText(R"(
%%
s : factor X ;
factor : variable | W ;
variable : W ;
)");
  StateItemGraph Graph(B.M);
  const Conflict C = B.T.reportedConflicts()[0];
  ASSERT_EQ(C.K, Conflict::ReduceReduce);
  StateItemGraph::NodeId Reduce = Graph.nodeFor(C.State, C.reduceItem(B.G));
  StateItemGraph::NodeId Other = Graph.nodeFor(
      C.State,
      Item(C.OtherProd, uint32_t(B.G.production(C.OtherProd).Rhs.size())));
  std::optional<LssPath> Path =
      shortestLookaheadSensitivePath(Graph, Reduce, C.Token);
  ASSERT_TRUE(Path);

  UnifyingSearch Search(Graph);
  UnifyingResult R =
      Search.search(Reduce, Other, C.Token, &*Path, UnifyingOptions());
  ASSERT_EQ(R.Status, UnifyingStatus::Found);
  int DotPos = -1;
  std::vector<Symbol> Yield = yieldOf(R.Example->Derivs1, &DotPos);
  EXPECT_EQ(DotPos, int(Yield.size())) << "dot must be at the end";
  EXPECT_EQ(R.Example->exampleString1(B.G), "W \xE2\x80\xA2");
}

} // namespace
