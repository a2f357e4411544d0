//===- tests/LssEquivalenceTest.cpp - Pooled vs reference LSS --*- C++ -*-===//
//
// Part of lalrcex.
//
// The pooled lookahead-sensitive search (Dial queue, dominance frontiers,
// hash-consed lookahead sets) must return the exact path — node for node,
// edge kind for edge kind, lookahead set for lookahead set — that the
// retained reference BFS returns. DESIGN.md §5e proves this; the suite
// checks it over the worked corpus grammars and a random-grammar sweep,
// with the §6 reachability pruning both on and off. The automaton those
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

/// Runs both implementations on every reported conflict of \p T and
/// asserts step-for-step equality.
void expectEquivalentPaths(const Grammar &G, const Automaton &M,
                           const ParseTable &T,
                           const std::string &Context) {
  StateItemGraph Graph(M);
  for (const Conflict &C : T.reportedConflicts()) {
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
  expectEquivalentPaths(*G, M, T, E->Name);
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
  expectEquivalentPaths(*G, M, T, Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LssRandomEquivalenceTest,
                         ::testing::Range(0, 40));

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
    std::ifstream In(std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/" + GetParam(),
                     std::ios::binary);
    ASSERT_TRUE(In) << GetParam();
    std::stringstream Buf;
    Buf << In.rdbuf();
    Text = Buf.str();
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
