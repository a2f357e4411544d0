//===- tests/LssEquivalenceTest.cpp - One-bit vs reference LSS -*- C++ -*-===//
//
// Part of lalrcex.
//
// The one-bit lookahead-sensitive search (a BFS over (node, conflict
// terminal in L) pairs, sets rebuilt along the found path) must return the
// exact path — node for node, edge kind for edge kind, lookahead set for
// lookahead set — that the retained set-valued reference BFS returns.
// DESIGN.md §5e proves this; the suite checks it over the worked corpus
// grammars, the imported ansi_c.y and sql.y, and a random-grammar sweep,
// with the §6 reachability pruning both on and off, and pins the search's
// work, paths and touched sets on sql.y and Java.2. The automaton those
// searches run on is checked the same way: the DeRemer–Pennello
// lookahead pass against the Dragon Book 4.63 reference, and the LALR(1)
// machine against the canonical LR(1) machine merged by LR(0) core, over
// the whole corpus, the example grammars and random grammars.
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "counterexample/LookaheadSensitiveSearch.h"
#include "grammar/GrammarParser.h"
#include "lr/ParseTable.h"
#include "support/Hash.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <map>

using namespace lalrcex;
using lalrcex::testing::randomGrammarText;

namespace {

/// Runs both implementations on each of \p Conflicts and asserts
/// step-for-step equality.
void expectEquivalentPaths(const Grammar &G, const Automaton &M,
                           const std::vector<Conflict> &Conflicts,
                           const std::string &Context) {
  StateItemGraph Graph(M);
  for (const Conflict &C : Conflicts) {
    StateItemGraph::NodeId Node = Graph.nodeFor(C.State, C.reduceItem(G));
    for (bool Prune : {true, false}) {
      MetricsRegistry Metrics;
      std::optional<LssPath> Pooled = shortestLookaheadSensitivePath(
          Graph, Node, C.Token, Prune, /*Guard=*/nullptr, &Metrics);
      std::optional<LssPath> Ref = shortestLookaheadSensitivePathReference(
          Graph, Node, C.Token, Prune);

      ASSERT_EQ(Pooled.has_value(), Ref.has_value())
          << Context << "\nconflict " << C.describe(G)
          << " prune=" << Prune;
      if (!Pooled)
        continue;
      ASSERT_EQ(Pooled->Steps.size(), Ref->Steps.size())
          << Context << "\nconflict " << C.describe(G)
          << " prune=" << Prune;
      for (size_t I = 0; I != Pooled->Steps.size(); ++I) {
        const LssStep &P = Pooled->Steps[I], &R = Ref->Steps[I];
        ASSERT_EQ(P.Node, R.Node)
            << Context << "\nstep " << I << " of " << C.describe(G);
        ASSERT_EQ(P.EdgeKind, R.EdgeKind)
            << Context << "\nstep " << I << " of " << C.describe(G);
        ASSERT_EQ(P.Lookaheads, R.Lookaheads)
            << Context << "\nstep " << I << " of " << C.describe(G);
      }
      // The metrics observed the search that just ran.
      MetricsSnapshot Stats = Metrics.snapshot();
      EXPECT_GT(Stats.counter(metric::LssExpanded), 0u) << Context;
      EXPECT_GE(Stats.counter(metric::LssEnqueued), Pooled->Steps.size())
          << Context;
    }
  }
}

class LssCorpusEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(LssCorpusEquivalenceTest, PooledMatchesReference) {
  const CorpusEntry *E = findCorpusEntry(GetParam());
  ASSERT_NE(E, nullptr);
  std::optional<Grammar> G = parseGrammarText(E->Text);
  ASSERT_TRUE(G);
  GrammarAnalysis A(*G);
  Automaton M(*G, A);
  ParseTable T(M);
  expectEquivalentPaths(*G, M, T.reportedConflicts(), E->Name);
}

INSTANTIATE_TEST_SUITE_P(Corpus, LssCorpusEquivalenceTest,
                         ::testing::Values("figure1", "figure3", "SQL.2",
                                           "Pascal.1", "C.1", "Java.1"));

class LssRandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LssRandomEquivalenceTest, PooledMatchesReference) {
  uint64_t Seed = uint64_t(GetParam()) + 9000;
  std::string Text =
      randomGrammarText(Seed, 4 + unsigned(Seed % 5), 3 + unsigned(Seed % 4));
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G) << Text;
  GrammarAnalysis A(*G);
  if (!A.isProductive(G->startSymbol()))
    GTEST_SKIP() << "start symbol unproductive for this seed";
  Automaton M(*G, A);
  ParseTable T(M);
  expectEquivalentPaths(*G, M, T.reportedConflicts(), Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LssRandomEquivalenceTest,
                         ::testing::Range(0, 40));

/// The text of one of the imported grammars in examples/grammars (empty
/// when the file is missing).
std::string exampleGrammarText(const std::string &Name) {
  std::ifstream In(std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/" + Name,
                   std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The imported grammars' production-step families are far larger than
/// the corpus's, so they check that a family's shared frontier key answers
/// exactly for every member: every conflict of ansi_c.y, and sql.y's two
/// reduce/reduce conflicts (states #417 and #529), whose paths take
/// production steps into expr's 56-member family. The reference BFS
/// takes about 3 s per sql.y shift/reduce conflict, so those five stay
/// out of the suite.
TEST(LssExampleEquivalenceTest, AnsiCMatchesReference) {
  GrammarParseResult R = parseGrammar(exampleGrammarText("ansi_c.y"));
  ASSERT_TRUE(R.ok());
  BuiltGrammar B(std::move(*R.G));
  ASSERT_FALSE(B.T.reportedConflicts().empty());
  expectEquivalentPaths(B.G, B.M, B.T.reportedConflicts(), "ansi_c.y");
}

TEST(LssExampleEquivalenceTest, SqlReduceReduceMatchesReference) {
  GrammarParseResult R = parseGrammar(exampleGrammarText("sql.y"));
  ASSERT_TRUE(R.ok());
  BuiltGrammar B(std::move(*R.G));
  std::vector<Conflict> ReduceReduce;
  for (const Conflict &C : B.T.reportedConflicts())
    if (C.K == Conflict::ReduceReduce)
      ReduceReduce.push_back(C);
  ASSERT_EQ(ReduceReduce.size(), 2u);
  EXPECT_EQ(ReduceReduce[0].State, 417u);
  EXPECT_EQ(ReduceReduce[1].State, 529u);
  expectEquivalentPaths(B.G, B.M, ReduceReduce, "sql.y");
}

/// One search for \p C's reduce item, run under a touch recorder.
struct RecordedSearch {
  std::optional<LssPath> Path;
  std::vector<uint32_t> Touched; ///< ascending
  MetricsSnapshot Stats;         ///< this search's lss.* counters
};

RecordedSearch recordedSearch(const StateItemGraph &Graph, const Grammar &G,
                              const Conflict &C, bool Prune = true) {
  StateItemGraph::NodeId Node = Graph.nodeFor(C.State, C.reduceItem(G));
  GraphTouchRecorder Rec(Graph.numNodes());
  MetricsRegistry Metrics;
  RecordedSearch R;
  {
    ScopedGraphTouchRecorder Scope(&Rec);
    R.Path = shortestLookaheadSensitivePath(Graph, Node, C.Token, Prune,
                                            /*Guard=*/nullptr, &Metrics);
  }
  R.Touched = Rec.sortedNodes();
  R.Stats = Metrics.snapshot();
  return R;
}

/// Feeds \p H one search's answer and reads: the path's nodes, edge kinds
/// and lookahead sets, then its touched set in ascending order (what the
/// finder stores beside the report for the remap verifier).
void hashSearch(StableHasher &H, const RecordedSearch &R) {
  H.addU8(R.Path.has_value());
  if (R.Path) {
    H.addU64(R.Path->Steps.size());
    for (const LssStep &S : R.Path->Steps) {
      H.addU32(S.Node);
      H.addU8(S.EdgeKind);
      H.addU32(S.Lookaheads.count());
      S.Lookaheads.forEach([&](unsigned T) { H.addU32(T); });
    }
  }
  H.addU64(R.Touched.size());
  for (uint32_t N : R.Touched)
    H.addU32(N);
}

/// The search's work on sql.y's 7 reported conflicts, pinned per conflict,
/// with each path and touched set pinned by fingerprint (taken from the
/// set-valued search). The reference BFS takes about 3 s per shift/reduce
/// conflict here, so the fingerprints are those five paths' only check: a
/// faster search must leave them, and the path lengths, unchanged. With
/// the §6 pruning on, the reachability pass reads every relevant node, so
/// the touched set says little about the search itself; with it off, the
/// touched set is exactly the nodes the search expanded, so one more
/// fingerprint folds every unpruned search.
TEST(LssWorkTest, SqlFamiliesKeepWorkAndShareProbes) {
  GrammarParseResult R = parseGrammar(exampleGrammarText("sql.y"));
  ASSERT_TRUE(R.ok());
  BuiltGrammar B(std::move(*R.G));
  StateItemGraph Graph(B.M);
  struct Work {
    unsigned State;
    size_t Expanded, Enqueued, DominancePruned, PathLength, TouchedSize;
    const char *Fingerprint;
  };
  const Work Expected[] = {
      {417, 5763, 6589, 113144, 14, 6940,
       "31933fb102ffb3293e44af41da5a8edf"},
      {529, 6847, 7704, 136870, 15, 6940,
       "cf93bf2c56c5880d4458dda9ac1b6236"},
      {621, 9384, 9747, 186167, 25, 6940,
       "9475a102899e60be5d1696ab181fed90"},
      {684, 9750, 10175, 195666, 26, 6940,
       "866562e452b53b766efb870dd9efdfa0"},
      {685, 9751, 10175, 195667, 26, 6940,
       "94751d526759cdbb01481d8253a78735"},
      {690, 9748, 10174, 195665, 26, 6940,
       "625169083b66d89534bd34bb4a2f2a5d"},
      {791, 10441, 10532, 208516, 28, 6940,
       "66ca73dbcff411efdedc2b5a51f52e70"},
  };
  const std::vector<Conflict> &Conflicts = B.T.reportedConflicts();
  ASSERT_EQ(Conflicts.size(), std::size(Expected));
  StableHasher Unpruned;
  for (size_t I = 0; I != Conflicts.size(); ++I) {
    const Conflict &C = Conflicts[I];
    const Work &W = Expected[I];
    ASSERT_EQ(C.State, W.State);
    RecordedSearch S = recordedSearch(Graph, B.G, C);
    ASSERT_TRUE(S.Path) << "state " << C.State;
    EXPECT_EQ(S.Stats.counter(metric::LssExpanded), W.Expanded)
        << "state " << C.State;
    EXPECT_EQ(S.Stats.counter(metric::LssEnqueued), W.Enqueued)
        << "state " << C.State;
    EXPECT_EQ(S.Stats.counter(metric::LssDominancePruned), W.DominancePruned)
        << "state " << C.State;
    EXPECT_EQ(S.Path->Steps.size(), W.PathLength) << "state " << C.State;
    EXPECT_EQ(S.Touched.size(), W.TouchedSize) << "state " << C.State;
    StableHasher H;
    hashSearch(H, S);
    EXPECT_EQ(H.finish().hex(), W.Fingerprint) << "state " << C.State;
    // Each frontier key admits at most two vertices.
    EXPECT_LE(S.Stats.counter(metric::LssExpanded),
              2 * size_t(Graph.numNodes()))
        << "state " << C.State;
    hashSearch(Unpruned, recordedSearch(Graph, B.G, C, /*Prune=*/false));
  }
  EXPECT_EQ(Unpruned.finish().hex(), "30ec41c974c63049234e0b0589844f28");
}

/// Java.2's 272 conflicts: every path and touched set, with the pruning on
/// and off, folded into one fingerprint in conflict order.
TEST(LssWorkTest, Java2PathsAndTouchedSetsPinned) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("Java.2");
  StateItemGraph Graph(B.M);
  const std::vector<Conflict> &Conflicts = B.T.reportedConflicts();
  ASSERT_EQ(Conflicts.size(), 272u);
  StableHasher H;
  for (const Conflict &C : Conflicts)
    for (bool Prune : {true, false})
      hashSearch(H, recordedSearch(Graph, B.G, C, Prune));
  EXPECT_EQ(H.finish().hex(), "2f4778d62733894990f1b0054cdc64ad");
}

/// Every corpus entry, then the example grammar files.
std::vector<std::string> grammarNames() {
  std::vector<std::string> Names;
  for (const CorpusEntry &E : corpus())
    Names.push_back(E.Name);
  Names.push_back("ansi_c.y");
  Names.push_back("sql.y");
  return Names;
}

/// The text of corpus entry or example grammar file \p Name (empty when
/// neither exists).
std::string grammarText(const std::string &Name) {
  if (const CorpusEntry *E = findCorpusEntry(Name))
    return E->Text;
  return exampleGrammarText(Name);
}

/// The DeRemer–Pennello lookahead pass (the LALR(1) default) must give
/// every item exactly the lookahead set the reference Dragon Book 4.63
/// propagation plus in-state closure fixpoint gives it.
class DeRemerPennelloVsDragon463Test
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DeRemerPennelloVsDragon463Test, LookaheadsMatch) {
  std::string Text = grammarText(GetParam());
  ASSERT_FALSE(Text.empty()) << GetParam();
  GrammarParseResult R = parseGrammar(Text);
  ASSERT_TRUE(R.ok()) << GetParam();
  GrammarAnalysis A(*R.G);
  expectAutomatonMatchesReference(*R.G, A, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Grammars, DeRemerPennelloVsDragon463Test,
                         ::testing::ValuesIn(grammarNames()));

class DeRemerPennelloRandomTest : public ::testing::TestWithParam<int> {};

/// The 40 seeded grammars of LssRandomEquivalenceTest.
TEST_P(DeRemerPennelloRandomTest, SmallGrammarsMatchDragon463) {
  uint64_t Seed = uint64_t(GetParam()) + 9000;
  std::string Text =
      randomGrammarText(Seed, 4 + unsigned(Seed % 5), 3 + unsigned(Seed % 4));
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G) << Text;
  GrammarAnalysis A(*G);
  expectAutomatonMatchesReference(*G, A, Text);
}

/// Larger grammars, each with at least one nullable nonterminal, so
/// the reads and includes relations carry real edges and cycles. A start
/// rule naming every nonterminal keeps all of them reachable.
TEST_P(DeRemerPennelloRandomTest, LargeNullableGrammarsMatchDragon463) {
  uint64_t Seed = uint64_t(GetParam()) + 17000;
  unsigned NumNts = 20 + unsigned(Seed % 21);
  std::string Text = "%%\nstart :";
  for (unsigned N = 0; N != NumNts; ++N)
    Text += (N == 0 ? " n" : " | n") + std::to_string(N);
  Text += " ;\n" + randomGrammarText(Seed, NumNts, 6 + unsigned(Seed % 9))
                       .substr(3); // drop its "%%\n"
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G) << Text;
  GrammarAnalysis A(*G);
  bool AnyNullable = false;
  for (unsigned S = G->numTerminals(); S != G->numSymbols(); ++S)
    AnyNullable |= A.isNullable(Symbol(int32_t(S)));
  ASSERT_TRUE(AnyNullable) << "seed " << Seed << " has no nullable symbol";
  expectAutomatonMatchesReference(*G, A, Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeRemerPennelloRandomTest,
                         ::testing::Range(0, 40));

/// LALR(1) is canonical LR(1) with the states of equal LR(0) core merged
/// and their lookaheads unioned. Checks that definition on \p G: every
/// canonical state's core is an LALR kernel and every LALR state is some
/// canonical state's core; a state's items and its transitions (through
/// the core map) agree with its LALR state's; and every LALR lookahead is
/// the union of that item's canonical lookaheads.
void expectLalrIsMergedCanonical(const Grammar &G, const GrammarAnalysis &A,
                                 const std::string &Context) {
  Automaton Lalr(G, A, AutomatonKind::Lalr1);
  Automaton Canon(G, A, AutomatonKind::Canonical);
  auto kernelOf = [](const Automaton::State &S) {
    return std::vector<Item>(S.Items.begin(), S.Items.begin() + S.NumKernel);
  };
  std::map<std::vector<Item>, unsigned> LalrState;
  for (unsigned L = 0; L != Lalr.numStates(); ++L)
    ASSERT_TRUE(LalrState.emplace(kernelOf(Lalr.state(L)), L).second)
        << Context << ": LALR state " << L << " repeats a kernel";

  std::vector<unsigned> Core(Canon.numStates());
  for (unsigned C = 0; C != Canon.numStates(); ++C) {
    auto It = LalrState.find(kernelOf(Canon.state(C)));
    ASSERT_NE(It, LalrState.end())
        << Context << ": canonical state " << C << "'s core is no LALR kernel";
    Core[C] = It->second;
  }

  std::vector<std::vector<IndexSet>> Merged(Lalr.numStates());
  for (unsigned C = 0; C != Canon.numStates(); ++C) {
    const Automaton::State &CS = Canon.state(C);
    const Automaton::State &LS = Lalr.state(Core[C]);
    ASSERT_EQ(CS.NumKernel, LS.NumKernel) << Context << " state " << C;
    ASSERT_EQ(CS.Items, LS.Items) << Context << " state " << C;
    ASSERT_EQ(CS.Transitions.size(), LS.Transitions.size())
        << Context << " state " << C;
    for (size_t T = 0; T != CS.Transitions.size(); ++T) {
      ASSERT_EQ(CS.Transitions[T].first, LS.Transitions[T].first)
          << Context << " state " << C;
      ASSERT_EQ(Core[CS.Transitions[T].second], LS.Transitions[T].second)
          << Context << " state " << C << " on "
          << G.name(CS.Transitions[T].first);
    }
    std::vector<IndexSet> &Union = Merged[Core[C]];
    if (Union.empty())
      Union.assign(CS.Lookaheads.size(), IndexSet(G.numTerminals()));
    for (size_t I = 0; I != CS.Lookaheads.size(); ++I)
      Union[I].unionWith(CS.Lookaheads[I]);
  }

  for (unsigned L = 0; L != Lalr.numStates(); ++L) {
    const Automaton::State &LS = Lalr.state(L);
    ASSERT_FALSE(Merged[L].empty())
        << Context << ": LALR state " << L << " is no canonical core";
    for (size_t I = 0; I != LS.Lookaheads.size(); ++I)
      ASSERT_EQ(LS.Lookaheads[I], Merged[L][I])
          << Context << " state " << L << " item "
          << G.productionString(LS.Items[I].Prod, int(LS.Items[I].Dot));
  }
}

class CanonicalMergeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CanonicalMergeTest, MergedCoresAreLalr) {
  std::string Text = grammarText(GetParam());
  ASSERT_FALSE(Text.empty()) << GetParam();
  GrammarParseResult R = parseGrammar(Text);
  ASSERT_TRUE(R.ok()) << GetParam();
  GrammarAnalysis A(*R.G);
  expectLalrIsMergedCanonical(*R.G, A, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Grammars, CanonicalMergeTest,
                         ::testing::ValuesIn(grammarNames()));

class CanonicalMergeRandomTest : public ::testing::TestWithParam<int> {};

/// The 40 seeded grammars of DeRemerPennelloRandomTest's small sweep.
TEST_P(CanonicalMergeRandomTest, MergedCoresAreLalr) {
  uint64_t Seed = uint64_t(GetParam()) + 9000;
  std::string Text =
      randomGrammarText(Seed, 4 + unsigned(Seed % 5), 3 + unsigned(Seed % 4));
  std::optional<Grammar> G = parseGrammarText(Text);
  ASSERT_TRUE(G) << Text;
  GrammarAnalysis A(*G);
  expectLalrIsMergedCanonical(*G, A, Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalMergeRandomTest,
                         ::testing::Range(0, 40));

} // namespace
