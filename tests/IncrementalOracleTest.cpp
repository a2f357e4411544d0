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
//     exactly one cache.remap_* refusal reason, and every unverified one
//     under exactly one cache.remap_unverified_* check.
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

#include <array>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

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
  // Every unverified miss counts under exactly one first failed check.
  uint64_t UnverifiedSplit = 0;
  for (metric::Counter C :
       {metric::CacheRemapUnverifiedState,
        metric::CacheRemapUnverifiedLookahead, metric::CacheRemapUnverifiedRow,
        metric::CacheRemapUnverifiedFirst, metric::CacheRemapUnverifiedChoice})
    UnverifiedSplit += Snap.counter(C);
  EXPECT_EQ(UnverifiedSplit, Snap.counter(metric::CacheRemapUnverified));
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

/// Reads and parses one of the imported grammars in examples/grammars.
std::optional<Grammar> loadExampleGrammar(const std::string &Name) {
  std::ifstream In(std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/" + Name,
                   std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return parseGrammar(Buf.str()).G;
}

/// What the remap layer decided for one run: the finder's reuse split
/// and the four cache.remap_* reasons a miss was not remapped.
struct RemapVerdicts {
  std::string Edit;
  size_t Reused = 0, Remapped = 0, Recomputed = 0;
  uint64_t Unmapped = 0, Absent = 0, Unverified = 0, Refused = 0;
  /// Unverified split by the first check that failed: state, lookahead,
  /// adjacency row, FIRST/nullable, min-derivation choice.
  std::array<uint64_t, 5> UnverifiedBy{};
};

TEST(IncrementalOracleTest, PinnedRemapVerdicts) {
  // One round of all ten edit kinds on Java.2 and on sql.y, each edit
  // applied to the baseline and followed by an advance back to it (as
  // cexbench's edit-loop drives them), through one session per grammar
  // and one cache directory, at Jobs 4 and 5,000 configurations with no
  // wall clock. Every verdict is pinned: a change to how the remap layer
  // computes its checks must leave each edit's split and each refusal
  // reason exactly as they are. The streams include edits that remap
  // every conflict (sql.y's reorder-alternatives and add-nonterminal),
  // edits that fail verification on every conflict, partial remaps with
  // unmapped and absent records, and invalid deltas (remove-terminal),
  // which offer no handoff and so count no reason. The unverified ones are
  // pinned by the first check that refused them, so losing a check that
  // the totals cannot see (the productionSteps or reverseTransitions row
  // comparison alone, say) still moves a count here.
  struct Stream {
    const char *Name;
    std::optional<Grammar> G;
    uint64_t Seed;
    std::vector<RemapVerdicts> Expect; ///< one per allEditKinds() entry
  };
  std::vector<Stream> Streams;
  Streams.push_back(
      {"Java.2",
       loadCorpusGrammar("Java.2"),
       1,
       {{"add-alternative class_or_interface_type", 0, 232, 50, 10, 0, 40, 0,
         {0, 4, 34, 0, 2}},
        {"remove-alternative class_declaration", 0, 0, 271, 15, 0, 256, 0,
         {24, 0, 232, 0, 0}},
        {"reorder-alternatives variable_initializer", 0, 270, 2, 0, 0, 2, 0,
         {0, 0, 0, 0, 2}},
        {"rename-nonterminal expression -> expression_r1", 272, 0, 0, 0, 0,
         0, 0},
        {"toggle-precedence add BOOLEAN", 272, 0, 0, 0, 0, 0, 0},
        {"toggle-expect 2", 272, 0, 0, 0, 0, 0, 0},
        {"add-nonterminal nt_new1 via dim_expr", 0, 236, 37, 1, 0, 36, 0,
         {0, 36, 0, 0, 0}},
        {"add-terminal tk_new1 via if_then_else_statement", 0, 268, 5, 0, 1,
         4, 0, {0, 0, 0, 4, 0}},
        {"remove-terminal CATCH", 0, 0, 272, 0, 0, 0, 0},
        {"rename-terminal SHORT -> SHORT_t1", 272, 0, 0, 0, 0, 0, 0}}});
  Streams.push_back(
      {"sql.y",
       loadExampleGrammar("sql.y"),
       4,
       {{"add-alternative xfullname", 0, 0, 7, 0, 0, 7, 0, {0, 0, 0, 7, 0}},
        {"remove-alternative conslist_opt", 0, 0, 7, 0, 0, 7, 0,
         {0, 0, 0, 7, 0}},
        {"reorder-alternatives nulls", 0, 7, 0, 0, 0, 0, 0},
        {"rename-nonterminal create_table_args -> create_table_args_r1", 7,
         0, 0, 0, 0, 0, 0},
        {"toggle-precedence add UMINUS", 7, 0, 0, 0, 0, 0, 0},
        {"toggle-expect -1", 7, 0, 0, 0, 0, 0, 0},
        {"add-nonterminal nt_new1 via refact", 0, 7, 0, 0, 0, 0, 0},
        {"add-terminal tk_new1 via create_table", 0, 0, 7, 0, 0, 7, 0,
         {0, 0, 0, 7, 0}},
        {"remove-terminal EQ", 0, 0, 7, 0, 0, 0, 0},
        {"rename-terminal BITAND -> BITAND_t1", 7, 0, 0, 0, 0, 0, 0}}});

  std::string Dir = tempCacheDir("pinned_verdicts");
  FinderOptions Opts = oracleOptions(5'000);
  Opts.CachePath = Dir;
  Opts.Jobs = 4;
  for (const Stream &S : Streams) {
    SCOPED_TRACE(S.Name);
    ASSERT_TRUE(S.G);
    ASSERT_EQ(S.Expect.size(), allEditKinds().size());
    const EditableGrammar Base = EditableGrammar::fromGrammar(*S.G);
    EditRng Rng(S.Seed);
    IncrementalSession Sess(*S.G);
    auto run = [&](const std::string &Edit) {
      MetricsRegistry Metrics;
      FinderOptions O = Opts;
      O.Incremental = Sess.handoff();
      O.Metrics = &Metrics;
      CounterexampleFinder Finder(Sess.table(), O);
      Finder.examineAll();
      MetricsSnapshot Snap = Metrics.snapshot();
      RemapVerdicts V;
      V.Edit = Edit;
      V.Reused = Finder.cacheActivity().ConflictsReused;
      V.Remapped = Finder.cacheActivity().ConflictsRemapped;
      V.Recomputed = Finder.cacheActivity().ConflictsRecomputed;
      V.Unmapped = Snap.counter(metric::CacheRemapUnmapped);
      V.Absent = Snap.counter(metric::CacheRemapAbsent);
      V.Unverified = Snap.counter(metric::CacheRemapUnverified);
      V.Refused = Snap.counter(metric::CacheRemapRefused);
      V.UnverifiedBy = {Snap.counter(metric::CacheRemapUnverifiedState),
                        Snap.counter(metric::CacheRemapUnverifiedLookahead),
                        Snap.counter(metric::CacheRemapUnverifiedRow),
                        Snap.counter(metric::CacheRemapUnverifiedFirst),
                        Snap.counter(metric::CacheRemapUnverifiedChoice)};
      return V;
    };
    // The baseline seeds the cache: every conflict is computed.
    RemapVerdicts Prime = run("baseline");
    EXPECT_EQ(Prime.Reused + Prime.Remapped, 0u);
    EXPECT_GT(Prime.Recomputed, 0u);
    for (size_t K = 0; K != S.Expect.size(); ++K) {
      const RemapVerdicts &Want = S.Expect[K];
      EditableGrammar Model = Base;
      std::optional<AppliedEdit> Edit =
          applyRandomEdit(Model, Rng, {allEditKinds()[K]});
      ASSERT_TRUE(Edit);
      std::optional<Grammar> Edited = Model.build();
      ASSERT_TRUE(Edited);
      Sess.advance(std::move(*Edited));
      RemapVerdicts Got = run(Edit->Detail);
      SCOPED_TRACE(Want.Edit);
      EXPECT_EQ(Got.Edit, Want.Edit);
      EXPECT_EQ(Got.Reused, Want.Reused);
      EXPECT_EQ(Got.Remapped, Want.Remapped);
      EXPECT_EQ(Got.Recomputed, Want.Recomputed);
      EXPECT_EQ(Got.Unmapped, Want.Unmapped);
      EXPECT_EQ(Got.Absent, Want.Absent);
      EXPECT_EQ(Got.Unverified, Want.Unverified);
      EXPECT_EQ(Got.Refused, Want.Refused);
      EXPECT_EQ(Got.UnverifiedBy, Want.UnverifiedBy);
      Sess.advance(Grammar(*S.G));
    }
  }
  std::filesystem::remove_all(Dir);
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
