//===- tests/IncrementalOracleTest.cpp - Incremental edit oracle -*- C++ -*-===//
//
// Part of lalrcex.
//
// The randomized edit oracle behind incremental re-analysis: starting
// from a corpus or random grammar, apply a seeded stream of single-
// production edits (add/remove/reorder alternatives, rename a
// nonterminal, toggle precedence, toggle %expect, toggle a whole
// fresh-nonterminal block) and after every edit check that the
// incremental run is byte-identical to a cold recompute, at Jobs = 1 and
// Jobs = 4, and that the reuse counters are exactly the (blob key,
// conflict record) intersection with everything the cache has seen.
//
// The incremental leg holds an IncrementalSession across the edit
// stream, so it exercises the session and both reuse paths at once:
//
//   - the session's generation (built cold, states kernel-matched to the
//     previous one) — asserted equal to a cold build, field by field
//     (TestUtil.h's expectSameTable/expectSameGraph), after every edit;
//   - *direct* hits — conflicts whose record is in the blob of the
//     edited grammar's structure;
//   - *remapped* hits — conflicts that missed, re-served from the
//     previous generation's blob after touched-set verification through
//     the session's state maps; every other miss is counted under
//     exactly one cache.remap_* refusal reason.
//
// Budgets are deterministic (step caps only, no wall-clock deadlines,
// unlimited cumulative budget): report bytes are then a pure function of
// (grammar structure, options, conflict), which is the soundness premise
// of conflict-level reuse, so any divergence is a real bug, not noise.
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "cache/AnalysisCache.h"
#include "counterexample/IncrementalSession.h"
#include "grammar/GrammarEdit.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

using namespace lalrcex;
using namespace lalrcex::cache;

namespace {

std::string tempCacheDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "lalrcex_oracle_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Deterministic and reuse-eligible: per-conflict step caps only. A
/// finite cumulative budget would both add cross-conflict coupling and
/// serve blobs only whole, with remaps off (see cache/AnalysisCache.h).
FinderOptions oracleOptions(size_t MaxConfigs) {
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = MaxConfigs;
  return Opts;
}

/// One full examineAll run plus everything the oracle compares.
struct RunResult {
  /// reportBytes with every report's wall-clock Seconds zeroed: the one
  /// field that legitimately differs between a cold recompute and a
  /// re-served report of the same conflict.
  std::string Bytes;
  /// Rendered report text (renders no timings).
  std::string Rendered;
  size_t Reused = 0;
  size_t Remapped = 0;
  size_t Recomputed = 0;
  /// The cache.remap_* counters: why each miss was not remapped.
  uint64_t RemapRefusals = 0;
  size_t NumConflicts = 0;
  /// (blob key, conflict record) of this grammar's reported conflicts.
  std::vector<std::pair<std::string, Conflict>> Keys;
};

/// Orders (blob key, conflict record) pairs: blob key, then record.
struct KeyLess {
  bool operator()(const std::pair<std::string, Conflict> &A,
                  const std::pair<std::string, Conflict> &B) const {
    if (A.first != B.first)
      return A.first < B.first;
    return conflictRecordLess(A.second, B.second);
  }
};

RunResult runWith(const Grammar &G, const ParseTable &T, FinderOptions Opts,
                  const std::string &CacheDir, unsigned Jobs,
                  const IncrementalHandoff *H) {
  MetricsRegistry Metrics;
  Opts.CachePath = CacheDir;
  Opts.Jobs = Jobs;
  Opts.Incremental = H;
  Opts.Metrics = &Metrics;
  CounterexampleFinder Finder(T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();

  RunResult R;
  R.Reused = Finder.cacheActivity().ConflictsReused;
  R.Remapped = Finder.cacheActivity().ConflictsRemapped;
  R.Recomputed = Finder.cacheActivity().ConflictsRecomputed;
  MetricsSnapshot Snap = Metrics.snapshot();
  for (metric::Counter C :
       {metric::CacheRemapUnmapped, metric::CacheRemapAbsent,
        metric::CacheRemapUnverified, metric::CacheRemapRefused})
    R.RemapRefusals += Snap.counter(C);
  R.NumConflicts = Reports.size();

  std::vector<ConflictReport> Zeroed = Reports;
  for (ConflictReport &Rep : Zeroed)
    Rep.Seconds = 0;
  R.Bytes = reportBytes(Zeroed);
  for (const ConflictReport &Rep : Reports)
    R.Rendered += Finder.render(Rep);

  std::vector<Conflict> Reported = T.reportedConflicts();
  std::string Key =
      reportBlobKey(G, T.automaton().kind(), Opts, Reported).hex();
  for (const Conflict &C : Reported)
    R.Keys.emplace_back(Key, C);
  return R;
}

/// Drives one grammar through \p NumEdits seeded edits, holding two
/// IncrementalSessions with independently primed cache directories so the
/// Jobs = 1 and Jobs = 4 incremental legs each see the full edit history
/// (and each advance its session across it). \p TotalRemapped, when
/// non-null, accumulates remap-layer hits across the whole stream.
void runOracle(const Grammar &Initial, uint64_t Seed, unsigned NumEdits,
               size_t MaxConfigs, const std::string &Tag,
               size_t *TotalRemapped = nullptr) {
  SCOPED_TRACE(Tag + " seed " + std::to_string(Seed));
  std::string DirA = tempCacheDir(Tag + "_j1");
  std::string DirB = tempCacheDir(Tag + "_j4");
  FinderOptions Opts = oracleOptions(MaxConfigs);

  EditableGrammar Model = EditableGrammar::fromGrammar(Initial);
  EditRng Rng(Seed);

  // The edit model round-trips exactly: same fingerprint, same ids.
  std::optional<Grammar> G0 = Model.build();
  ASSERT_TRUE(G0);
  ASSERT_EQ(grammarFingerprint(*G0, AutomatonKind::Lalr1),
            grammarFingerprint(Initial, AutomatonKind::Lalr1));

  IncrementalSession SessA(*G0), SessB(*G0);

  // Prime both cache directories with the pre-edit grammar; the first
  // run of a fresh cache reuses nothing and recomputes everything.
  std::set<std::pair<std::string, Conflict>, KeyLess> Seen;
  {
    RunResult PrimeA = runWith(SessA.grammar(), SessA.table(), Opts, DirA,
                               1, nullptr);
    RunResult PrimeB = runWith(SessB.grammar(), SessB.table(), Opts, DirB,
                               4, nullptr);
    for (const RunResult *Prime : {&PrimeA, &PrimeB}) {
      EXPECT_EQ(Prime->Reused, 0u);
      EXPECT_EQ(Prime->Remapped, 0u);
      EXPECT_EQ(Prime->Recomputed, Prime->NumConflicts);
      Seen.insert(Prime->Keys.begin(), Prime->Keys.end());
    }
  }

  for (unsigned E = 0; E != NumEdits; ++E) {
    std::optional<AppliedEdit> Edit =
        applyRandomEdit(Model, Rng, allEditKinds());
    if (!Edit)
      break; // degenerate grammar: no valid edit found
    SCOPED_TRACE("edit #" + std::to_string(E) + ": " + Edit->Detail);
    std::optional<Grammar> Edited = Model.build();
    ASSERT_TRUE(Edited) << "validated edit no longer builds";

    // Advance both sessions, then hold their generations to the absolute
    // bar: automaton + table + state-item graph equal to a cold build in
    // every field, not merely action-equivalent.
    SessA.advance(*Edited);
    SessB.advance(*Edited);
    BuiltGrammar ColdBuild(*Edited);
    StateItemGraph ColdGraph(ColdBuild.M);
    ASSERT_NO_FATAL_FAILURE(expectSameTable(SessA.table(), ColdBuild.T, "A"));
    ASSERT_NO_FATAL_FAILURE(expectSameGraph(SessA.graph(), ColdGraph, "A"));
    ASSERT_NO_FATAL_FAILURE(expectSameTable(SessB.table(), ColdBuild.T, "B"));
    ASSERT_NO_FATAL_FAILURE(expectSameGraph(SessB.graph(), ColdGraph, "B"));

    RunResult Cold = runWith(ColdBuild.G, ColdBuild.T, Opts,
                             std::string(), 1, nullptr);
    EXPECT_EQ(Cold.Reused, 0u);
    EXPECT_EQ(Cold.Recomputed, 0u); // cacheless runs count nothing

    // The exact expectation for *direct* hits, from the key layer
    // itself: a conflict hits iff its (blob key, record) pair is already
    // in the cache, i.e. appeared in any earlier run of this edit
    // history. Remapped hits come on top of these, out of the missed
    // remainder.
    size_t ExpectReused = 0;
    for (const auto &K : Cold.Keys)
      if (Seen.count(K))
        ++ExpectReused;

    for (unsigned Jobs : {1u, 4u}) {
      IncrementalSession &Sess = Jobs == 1 ? SessA : SessB;
      RunResult Incr = runWith(Sess.grammar(), Sess.table(), Opts,
                               Jobs == 1 ? DirA : DirB, Jobs,
                               Sess.handoff());
      SCOPED_TRACE("Jobs=" + std::to_string(Jobs));
      // Byte-identity with the cold recompute, and identical rendering.
      EXPECT_EQ(Incr.Bytes, Cold.Bytes);
      EXPECT_EQ(Incr.Rendered, Cold.Rendered);
      EXPECT_EQ(Incr.Reused, ExpectReused);
      // Reused + Remapped + Recomputed covers every conflict.
      EXPECT_EQ(Incr.Recomputed,
                Incr.NumConflicts - Incr.Reused - Incr.Remapped);
      // With a handoff, every recompute has exactly one refusal reason.
      if (Sess.handoff())
        EXPECT_EQ(Incr.RemapRefusals, Incr.Recomputed);
      else
        EXPECT_EQ(Incr.RemapRefusals, 0u);
      if (TotalRemapped)
        *TotalRemapped += Incr.Remapped;
    }
    Seen.insert(Cold.Keys.begin(), Cold.Keys.end());
  }

  std::filesystem::remove_all(DirA);
  std::filesystem::remove_all(DirB);
}

TEST(IncrementalOracleTest, CorpusGrammars) {
  struct Entry {
    const char *Name;
    uint64_t Seed;
  };
  // A cross-section of the corpus: the paper's running example, a
  // precedence-heavy grammar, and real-language extracts with both
  // shift/reduce and reduce/reduce conflicts.
  size_t TotalRemapped = 0;
  // xi's seed is picked so the stream opens with a structural edit far
  // from its conflicts (an added alternative whose FIRST contribution is
  // absorbed): the keys move but every verification survives, which is
  // the remap layer's reason to exist and is asserted below.
  for (const Entry &E : {Entry{"figure1", 11}, Entry{"figure3", 12},
                         Entry{"expr_prec_unresolved", 13},
                         Entry{"SQL.1", 14}, Entry{"SQL.3", 15},
                         Entry{"xi", 14}}) {
    runOracle(loadCorpusGrammar(E.Name), E.Seed, 4, 20'000,
              std::string("corpus_") + E.Name, &TotalRemapped);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The remap layer must actually fire somewhere in the stream: a
  // structural edit that moves keys while leaving some conflict's
  // supporting subgraph intact is common across 6 grammars x 4 edits.
  EXPECT_GT(TotalRemapped, 0u);
}

TEST(IncrementalOracleTest, RandomGrammars) {
  // 40 seeded random grammars, two edits each. Many are conflict-free —
  // the oracle must hold there too (empty report sets, zero counters).
  unsigned Driven = 0;
  for (uint64_t Seed = 0; Seed != 40; ++Seed) {
    std::string Text = lalrcex::testing::randomGrammarText(
        Seed, 4 + unsigned(Seed % 5), 4);
    std::optional<Grammar> G = parseGrammarText(Text);
    ASSERT_TRUE(G) << Text;
    GrammarAnalysis A(*G);
    if (!A.isProductive(G->startSymbol()))
      continue; // the automaton requires a productive start symbol
    runOracle(*G, Seed + 100, 2, 5'000,
              "random_" + std::to_string(Seed));
    if (::testing::Test::HasFatalFailure())
      return;
    ++Driven;
  }
  EXPECT_GT(Driven, 20u); // the sweep is not allowed to degenerate
}

} // namespace
