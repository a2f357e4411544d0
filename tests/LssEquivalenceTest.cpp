//===- tests/LssEquivalenceTest.cpp - Pooled vs reference LSS --*- C++ -*-===//
//
// Part of lalrcex.
//
// The pooled lookahead-sensitive search (Dial queue, dominance frontiers,
// hash-consed lookahead sets) must return the exact path — node for node,
// edge kind for edge kind, lookahead set for lookahead set — that the
// retained reference BFS returns. DESIGN.md §5e proves this; the suite
// checks it over the worked corpus grammars, the imported ansi_c.y and
// sql.y, and a random-grammar sweep, with the §6 reachability pruning
// both on and off, and pins the search's work on sql.y. The automaton those
// searches run on is checked the same way: the DeRemer–Pennello
// lookahead pass against the Dragon Book 4.63 reference, over the whole
// corpus, the example grammars and random grammars.
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "counterexample/LookaheadSensitiveSearch.h"
#include "grammar/GrammarParser.h"
#include "lr/ParseTable.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

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
      LssStats Stats;
      std::optional<LssPath> Pooled = shortestLookaheadSensitivePath(
          Graph, Node, C.Token, Prune, /*Guard=*/nullptr, &Stats);
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
      // The stats hook observed the search that just ran.
      EXPECT_GT(Stats.Expanded, 0u) << Context;
      EXPECT_GE(Stats.Enqueued, Pooled->Steps.size()) << Context;
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
/// the corpus's, so they check that a family's shared frontier answers
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

/// The search's work on sql.y's 7 reported conflicts, pinned per conflict.
/// A family's shared frontier must admit and prune exactly the vertices
/// that one frontier per member would (these counts), and only save
/// subset probes: one frontier per member makes 163,509,666 of them.
TEST(LssWorkTest, SqlFamiliesKeepWorkAndShareProbes) {
  GrammarParseResult R = parseGrammar(exampleGrammarText("sql.y"));
  ASSERT_TRUE(R.ok());
  BuiltGrammar B(std::move(*R.G));
  StateItemGraph Graph(B.M);
  struct Work {
    unsigned State;
    size_t Expanded, Enqueued, DominancePruned, PathLength;
  };
  const Work Expected[] = {
      {417, 61418, 86766, 1577937, 14},   {529, 92301, 107161, 1978504, 15},
      {621, 225596, 233107, 4847435, 25}, {684, 233110, 239253, 5004967, 26},
      {685, 233111, 239253, 5004968, 26}, {690, 233108, 239252, 5004966, 26},
      {791, 244034, 247277, 5216532, 28},
  };
  const std::vector<Conflict> &Conflicts = B.T.reportedConflicts();
  ASSERT_EQ(Conflicts.size(), std::size(Expected));
  size_t SubsetChecks = 0;
  for (size_t I = 0; I != Conflicts.size(); ++I) {
    const Conflict &C = Conflicts[I];
    const Work &W = Expected[I];
    ASSERT_EQ(C.State, W.State);
    LssStats Stats;
    std::optional<LssPath> Path = shortestLookaheadSensitivePath(
        Graph, Graph.nodeFor(C.State, C.reduceItem(B.G)), C.Token,
        /*PruneToReaching=*/true, /*Guard=*/nullptr, &Stats);
    ASSERT_TRUE(Path) << "state " << C.State;
    EXPECT_EQ(Stats.Expanded, W.Expanded) << "state " << C.State;
    EXPECT_EQ(Stats.Enqueued, W.Enqueued) << "state " << C.State;
    EXPECT_EQ(Stats.DominancePruned, W.DominancePruned) << "state " << C.State;
    EXPECT_EQ(Path->Steps.size(), W.PathLength) << "state " << C.State;
    SubsetChecks += Stats.SubsetChecks;
  }
  EXPECT_LE(SubsetChecks, size_t(25'000'000));
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

/// The DeRemer–Pennello lookahead pass (the LALR(1) default) must give
/// every item exactly the lookahead set the reference Dragon Book 4.63
/// propagation plus in-state closure fixpoint gives it.
class DeRemerPennelloVsDragon463Test
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DeRemerPennelloVsDragon463Test, LookaheadsMatch) {
  std::string Text;
  if (const CorpusEntry *E = findCorpusEntry(GetParam())) {
    Text = E->Text;
  } else {
    Text = exampleGrammarText(GetParam());
    ASSERT_FALSE(Text.empty()) << GetParam();
  }
  GrammarParseResult R = parseGrammar(Text);
  ASSERT_TRUE(R.ok()) << GetParam();
  GrammarAnalysis A(*R.G);
  expectAutomatonMatchesReference(*R.G, A, AutomatonKind::Lalr1, GetParam());
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
  expectAutomatonMatchesReference(*G, A, AutomatonKind::Lalr1, Text);
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
  expectAutomatonMatchesReference(*G, A, AutomatonKind::Lalr1, Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeRemerPennelloRandomTest,
                         ::testing::Range(0, 40));

/// The canonical LR(1) closure fixpoint on pooled ids must match its
/// IndexSet baseline (the LALR(1) kind is checked above, against
/// Dragon 4.63).
class AutomatonPoolEquivalenceTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(AutomatonPoolEquivalenceTest, PooledLookaheadsMatchBaseline) {
  const CorpusEntry *E = findCorpusEntry(GetParam());
  ASSERT_NE(E, nullptr);
  std::optional<Grammar> G = parseGrammarText(E->Text);
  ASSERT_TRUE(G);
  GrammarAnalysis A(*G);
  expectAutomatonMatchesReference(*G, A, AutomatonKind::Canonical, E->Name);
}

INSTANTIATE_TEST_SUITE_P(Corpus, AutomatonPoolEquivalenceTest,
                         ::testing::Values("figure1", "figure3", "SQL.2",
                                           "Pascal.1", "C.1"));

} // namespace
