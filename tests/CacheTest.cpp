//===- tests/CacheTest.cpp - Persistent analysis cache ---------*- C++ -*-===//
//
// Part of lalrcex.
//
// The cache subsystem's contract, tested from the bottom up: fingerprint
// stability and sensitivity (precedence flips, production reorders,
// renames, format-version bumps all invalidate), save -> load -> save
// byte-identity for all four blob kinds, warm report sets byte-identical
// to cold across job counts, and graceful degradation — corrupt,
// truncated, mis-keyed, and version-mismatched blobs all fall back to a
// cold recompute with a structured probe/FailureReason, never a crash.
// The conflict-granularity sections extend the same contract to `.crep`
// blobs (damage to one conflict's blob degrades only that conflict; a
// partially populated cache round-trips byte-identically) and to the
// collectGarbage() size cap (oldest-first whole-blob eviction, temp-file
// sweep; an evicted blob is a plain miss, never a degradation).
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "cache/AnalysisCache.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

using namespace lalrcex;
using namespace lalrcex::cache;

namespace {

/// A fresh (removed) cache directory under the test tmpdir.
std::string tempCacheDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "lalrcex_cache_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Deterministic budgets: no wall-clock deadlines, step caps only, so
/// report bytes are machine-independent and runs are repeatable.
FinderOptions deterministicOptions() {
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 50'000;
  Opts.CumulativeMaxConfigurations = 200'000;
  return Opts;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << Path;
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS << Bytes;
  ASSERT_TRUE(OS.flush()) << Path;
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(GrammarFingerprintTest, StableAcrossParses) {
  Grammar G1 = loadCorpusGrammar("expr_prec_unresolved");
  Grammar G2 = loadCorpusGrammar("expr_prec_unresolved");
  EXPECT_EQ(grammarFingerprint(G1, AutomatonKind::Lalr1),
            grammarFingerprint(G2, AutomatonKind::Lalr1));
  EXPECT_EQ(grammarFingerprint(G1, AutomatonKind::Lalr1).hex(),
            grammarFingerprint(G2, AutomatonKind::Lalr1).hex());
  EXPECT_EQ(grammarFingerprint(G1, AutomatonKind::Lalr1).hex().size(), 32u);
}

TEST(GrammarFingerprintTest, DistinctGrammarsDistinctFingerprints) {
  // No collisions across the whole corpus (128-bit fingerprints: any
  // collision here is a hasher bug, not bad luck).
  std::vector<std::string> Seen;
  for (const CorpusEntry &E : corpus()) {
    std::string Hex =
        grammarFingerprint(loadCorpusGrammar(E.Name), AutomatonKind::Lalr1)
            .hex();
    EXPECT_TRUE(std::find(Seen.begin(), Seen.end(), Hex) == Seen.end())
        << "fingerprint collision for " << E.Name;
    Seen.push_back(Hex);
  }
}

TEST(GrammarFingerprintTest, PrecedenceFlipChangesFingerprint) {
  const char *Left = "%left PLUS\n%%\ne : e PLUS e | x ;\n";
  const char *Right = "%right PLUS\n%%\ne : e PLUS e | x ;\n";
  std::optional<Grammar> G1 = parseGrammarText(Left);
  std::optional<Grammar> G2 = parseGrammarText(Right);
  ASSERT_TRUE(G1 && G2);
  EXPECT_NE(grammarFingerprint(*G1, AutomatonKind::Lalr1),
            grammarFingerprint(*G2, AutomatonKind::Lalr1));
}

TEST(GrammarFingerprintTest, ProductionReorderChangesFingerprint) {
  // Same rule set, different declaration order: conflict resolution is
  // order-sensitive (earlier rule wins reduce/reduce), so the reorder
  // must invalidate.
  std::optional<Grammar> G1 = parseGrammarText("%%\ns : a b | a c ;\n");
  std::optional<Grammar> G2 = parseGrammarText("%%\ns : a c | a b ;\n");
  ASSERT_TRUE(G1 && G2);
  EXPECT_NE(grammarFingerprint(*G1, AutomatonKind::Lalr1),
            grammarFingerprint(*G2, AutomatonKind::Lalr1));
}

TEST(GrammarFingerprintTest, RenameChangesFingerprint) {
  std::optional<Grammar> G1 = parseGrammarText("%%\ns : a s | b ;\n");
  std::optional<Grammar> G2 = parseGrammarText("%%\ns : a s | c ;\n");
  ASSERT_TRUE(G1 && G2);
  EXPECT_NE(grammarFingerprint(*G1, AutomatonKind::Lalr1),
            grammarFingerprint(*G2, AutomatonKind::Lalr1));
}

TEST(GrammarFingerprintTest, KindAndVersionSaltChangeFingerprint) {
  Grammar G = loadCorpusGrammar("figure1");
  Fingerprint128 Base = grammarFingerprint(G, AutomatonKind::Lalr1);
  EXPECT_NE(Base, grammarFingerprint(G, AutomatonKind::Canonical));
  EXPECT_NE(Base,
            grammarFingerprint(G, AutomatonKind::Lalr1, FormatVersion + 1));
}

TEST(OptionsFingerprintTest, BudgetsKeyedJobsAndCachePathNot) {
  FinderOptions A = deterministicOptions();
  FinderOptions B = A;

  // Jobs and CachePath must not be keyed: every job count shares one
  // report blob, and the cache location cannot change report content.
  B.Jobs = 7;
  B.CachePath = "/somewhere/else";
  EXPECT_EQ(optionsFingerprint(A), optionsFingerprint(B));

  B = A;
  B.MaxConfigurations += 1;
  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(B));
  B = A;
  B.ConflictTimeLimitSeconds = 1.5;
  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(B));
  B = A;
  B.UnifyingEnabled = false;
  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(B));
  B = A;
  B.ExtendedSearch = true;
  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(B));

  EXPECT_NE(optionsFingerprint(A), optionsFingerprint(A, FormatVersion + 1));
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(CacheRoundTripTest, AnalysisSaveLoadSaveByteIdentical) {
  for (const char *Name : {"figure1", "figure3", "expr_prec_unresolved",
                           "SQL.1", "stackovf10"}) {
    BuiltGrammar B = BuiltGrammar::fromCorpus(Name);
    std::string Blob = serializeAnalysis(B.T);

    RestoredAnalysis Restored;
    CacheProbe P = deserializeAnalysis(Blob, B.G, B.A,
                                       AutomatonKind::Lalr1, Restored);
    ASSERT_TRUE(P.hit()) << Name << ": " << P.Detail;
    ASSERT_TRUE(Restored.M && Restored.T);

    // Semantic equality...
    ASSERT_EQ(Restored.M->numStates(), B.M.numStates()) << Name;
    for (unsigned S = 0; S != B.M.numStates(); ++S) {
      EXPECT_EQ(Restored.M->state(S).Items, B.M.state(S).Items);
      EXPECT_EQ(Restored.M->state(S).Lookaheads, B.M.state(S).Lookaheads);
      EXPECT_EQ(Restored.M->state(S).Transitions,
                B.M.state(S).Transitions);
    }
    EXPECT_EQ(Restored.T->reportedConflicts().size(),
              B.T.reportedConflicts().size())
        << Name;
    // ...and canonical bytes: re-serializing the restored objects must
    // reproduce the blob exactly.
    EXPECT_EQ(serializeAnalysis(*Restored.T), Blob) << Name;
  }
}

TEST(CacheRoundTripTest, GraphSaveLoadSaveByteIdentical) {
  for (const char *Name : {"figure1", "xi", "Pascal.3"}) {
    BuiltGrammar B = BuiltGrammar::fromCorpus(Name);
    StateItemGraph Graph(B.M);
    std::string Blob = serializeGraph(Graph);

    std::optional<StateItemGraph> Restored;
    CacheProbe P = deserializeGraph(Blob, B.M, Restored);
    ASSERT_TRUE(P.hit()) << Name << ": " << P.Detail;
    ASSERT_TRUE(Restored);
    ASSERT_EQ(Restored->numNodes(), Graph.numNodes()) << Name;
    EXPECT_EQ(serializeGraph(*Restored), Blob) << Name;
  }
}

TEST(CacheRoundTripTest, ReportsSaveLoadSaveByteIdentical) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Cold = Finder.examineAll();
  ASSERT_FALSE(Cold.empty());

  std::string Blob = serializeReports(B.G, AutomatonKind::Lalr1, Opts, Cold);
  std::vector<ConflictReport> Loaded;
  CacheProbe P =
      deserializeReports(Blob, B.G, AutomatonKind::Lalr1, Opts, Loaded);
  ASSERT_TRUE(P.hit()) << P.Detail;
  ASSERT_EQ(Loaded.size(), Cold.size());
  EXPECT_EQ(serializeReports(B.G, AutomatonKind::Lalr1, Opts, Loaded), Blob);

  // Loaded reports render identically (timing fields travel verbatim).
  for (size_t I = 0; I != Cold.size(); ++I) {
    EXPECT_EQ(Finder.render(Loaded[I]), Finder.render(Cold[I]));
    EXPECT_EQ(Loaded[I].Seconds, Cold[I].Seconds);
    EXPECT_EQ(Loaded[I].Configurations, Cold[I].Configurations);
  }
}

TEST(CacheRoundTripTest, WarmReportsByteIdenticalAcrossJobs) {
  std::string Dir = tempCacheDir("warm_jobs");
  BuiltGrammar B = BuiltGrammar::fromCorpus("xi");

  FinderOptions Cold = deterministicOptions();
  Cold.CachePath = Dir;
  Cold.Jobs = 1;
  CounterexampleFinder ColdFinder(B.T, Cold);
  std::vector<ConflictReport> ColdReports = ColdFinder.examineAll();
  ASSERT_FALSE(ColdFinder.cacheActivity().ReportsFromCache);
  std::string ColdBytes =
      serializeReports(B.G, AutomatonKind::Lalr1, Cold, ColdReports);

  for (unsigned Jobs : {1u, 4u}) {
    FinderOptions Warm = Cold;
    Warm.Jobs = Jobs;
    CounterexampleFinder WarmFinder(B.T, Warm);
    std::vector<ConflictReport> WarmReports = WarmFinder.examineAll();
    EXPECT_TRUE(WarmFinder.cacheActivity().ReportsFromCache)
        << "Jobs=" << Jobs;
    EXPECT_EQ(
        serializeReports(B.G, AutomatonKind::Lalr1, Warm, WarmReports),
        ColdBytes)
        << "Jobs=" << Jobs;
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Header validation at the serialization level
//===----------------------------------------------------------------------===//

TEST(CacheValidationTest, VersionSaltMismatchDetected) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  std::string Blob = serializeAnalysis(B.T, FormatVersion);
  RestoredAnalysis Out;
  CacheProbe P = deserializeAnalysis(Blob, B.G, B.A, AutomatonKind::Lalr1,
                                     Out, FormatVersion + 1);
  // The foreign salt changes the expected fingerprint too, so either
  // rejection is acceptable; it must not be a hit.
  EXPECT_FALSE(P.hit());
  EXPECT_TRUE(P.degraded());
}

TEST(CacheValidationTest, KeyMismatchDetected) {
  // A blob written for one grammar presented as another grammar's: the
  // embedded key disagrees with the expected fingerprint.
  BuiltGrammar A = BuiltGrammar::fromCorpus("figure1");
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  std::string Blob = serializeAnalysis(A.T);
  RestoredAnalysis Out;
  CacheProbe P =
      deserializeAnalysis(Blob, B.G, B.A, AutomatonKind::Lalr1, Out);
  EXPECT_EQ(P.Outcome, CacheOutcome::KeyMismatch);
}

TEST(CacheValidationTest, EveryBitFlipIsRejected) {
  // Flip one bit at a sample of offsets across an analysis blob: the
  // trailing checksum (or, for flips inside the checksum itself, the
  // recomputed sum) must reject every single one — and never crash.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  std::string Blob = serializeAnalysis(B.T);
  for (size_t Off = 0; Off < Blob.size(); Off += 7) {
    std::string Bad = Blob;
    Bad[Off] = char(Bad[Off] ^ 0x40);
    RestoredAnalysis Out;
    CacheProbe P =
        deserializeAnalysis(Bad, B.G, B.A, AutomatonKind::Lalr1, Out);
    EXPECT_FALSE(P.hit()) << "offset " << Off;
  }
}

TEST(CacheValidationTest, TruncationIsRejected) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  std::string Blob = serializeGraph(StateItemGraph(B.M));
  for (size_t Len : {size_t(0), size_t(7), size_t(43), Blob.size() / 2,
                     Blob.size() - 1}) {
    std::optional<StateItemGraph> Out;
    CacheProbe P = deserializeGraph(Blob.substr(0, Len), B.M, Out);
    EXPECT_EQ(P.Outcome, CacheOutcome::Corrupt) << "length " << Len;
    EXPECT_FALSE(Out) << "length " << Len;
  }
}

TEST(CacheValidationTest, StateOffsetsDisagreeingWithAutomatonAreCorrupt) {
  // A graph blob whose checksum is intact but whose state offset table
  // disagrees with the automaton: every offset after state 0's is pushed
  // to the end of the node table. Accepted, nodeFor() would hand out node
  // ids past the tables for every state but 0.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  StateItemGraph Graph(B.M);
  std::string Blob = serializeGraph(Graph);

  auto putU32 = [&Blob](size_t Off, uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      Blob[Off + I] = char((V >> (8 * I)) & 0xFF);
  };
  // Header (magic, salt, two keys) and node count, then 16 bytes per node
  // (state, item index, production, dot), then the offset table's size.
  const size_t OffsetTable = 44 + 4 + 16 * size_t(Graph.numNodes()) + 4;
  for (unsigned S = 1; S <= B.M.numStates(); ++S)
    putU32(OffsetTable + 4 * S, Graph.numNodes());
  Fingerprint128 Sum = fingerprintBytes(Blob.data(), Blob.size() - 16);
  for (unsigned I = 0; I != 8; ++I) {
    Blob[Blob.size() - 16 + I] = char((Sum.Lo >> (8 * I)) & 0xFF);
    Blob[Blob.size() - 8 + I] = char((Sum.Hi >> (8 * I)) & 0xFF);
  }

  std::optional<StateItemGraph> Out;
  CacheProbe P = deserializeGraph(Blob, B.M, Out);
  EXPECT_EQ(P.Outcome, CacheOutcome::Corrupt) << P.Detail;
  EXPECT_FALSE(Out);
}

//===----------------------------------------------------------------------===//
// The on-disk layer
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, SessionColdThenWarm) {
  std::string Dir = tempCacheDir("session");
  AnalysisCache Cache(Dir);

  AnalysisSession Cold(loadCorpusGrammar("SQL.2"), AutomatonKind::Lalr1,
                       &Cache);
  EXPECT_FALSE(Cold.analysisFromCache());
  EXPECT_EQ(Cold.analysisProbe().Outcome, CacheOutcome::Miss);

  AnalysisSession Warm(loadCorpusGrammar("SQL.2"), AutomatonKind::Lalr1,
                       &Cache);
  EXPECT_TRUE(Warm.analysisFromCache());
  ASSERT_EQ(Warm.automaton().numStates(), Cold.automaton().numStates());
  for (unsigned S = 0; S != Cold.automaton().numStates(); ++S)
    EXPECT_EQ(Warm.automaton().state(S).Items,
              Cold.automaton().state(S).Items);
  EXPECT_EQ(serializeAnalysis(Warm.table()), serializeAnalysis(Cold.table()));

  // A null cache means plain construction, probe Disabled.
  AnalysisSession Plain(loadCorpusGrammar("SQL.2"), AutomatonKind::Lalr1,
                        nullptr);
  EXPECT_EQ(Plain.analysisProbe().Outcome, CacheOutcome::Disabled);
  EXPECT_EQ(Plain.automaton().numStates(), Cold.automaton().numStates());
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, GrammarEditInvalidates) {
  // Content addressing: after any grammar edit the new fingerprint simply
  // misses; the stale blob is never consulted.
  std::string Dir = tempCacheDir("edit");
  AnalysisCache Cache(Dir);
  std::optional<Grammar> G1 = parseGrammarText("%%\ns : s a | b ;\n");
  ASSERT_TRUE(G1);
  AnalysisSession S1(std::move(*G1), AutomatonKind::Lalr1, &Cache);
  EXPECT_EQ(S1.analysisProbe().Outcome, CacheOutcome::Miss);

  std::optional<Grammar> G2 = parseGrammarText("%%\ns : s a | b | c ;\n");
  ASSERT_TRUE(G2);
  AnalysisSession S2(std::move(*G2), AutomatonKind::Lalr1, &Cache);
  EXPECT_EQ(S2.analysisProbe().Outcome, CacheOutcome::Miss);
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, CorruptBlobDegradesToColdRecompute) {
  std::string Dir = tempCacheDir("corrupt");
  AnalysisCache Cache(Dir);
  Grammar G = loadCorpusGrammar("figure1");
  AnalysisSession Cold(loadCorpusGrammar("figure1"), AutomatonKind::Lalr1,
                       &Cache);
  ASSERT_FALSE(Cold.analysisFromCache());

  // Flip one payload byte in the stored blob.
  std::string Path = Cache.blobPath(G, AutomatonKind::Lalr1, "art");
  std::string Blob = readFile(Path);
  ASSERT_GT(Blob.size(), 60u);
  Blob[50] = char(Blob[50] ^ 0xFF);
  writeFile(Path, Blob);

  AnalysisSession Recovered(loadCorpusGrammar("figure1"),
                            AutomatonKind::Lalr1, &Cache);
  EXPECT_FALSE(Recovered.analysisFromCache());
  EXPECT_EQ(Recovered.analysisProbe().Outcome, CacheOutcome::Corrupt);
  EXPECT_TRUE(Recovered.analysisProbe().degraded());
  // The recompute is correct despite the damaged blob.
  EXPECT_EQ(Recovered.automaton().numStates(),
            Cold.automaton().numStates());
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, FinderRecordsCacheDegradation) {
  std::string Dir = tempCacheDir("finder_degrade");
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;

  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  ASSERT_FALSE(Cold.cacheActivity().ReportsFromCache);

  // Truncate the report blob: the warm finder must fall back to a cold
  // examineAll, record a structured cache-load degradation, and leave the
  // reports untouched by the damage.
  AnalysisCache Cache(Dir);
  std::string RepPath =
      Cache.blobPath(B.G, AutomatonKind::Lalr1, "rep", &Opts);
  std::string Blob = readFile(RepPath);
  writeFile(RepPath, Blob.substr(0, Blob.size() / 2));

  CounterexampleFinder Degraded(B.T, Opts);
  std::vector<ConflictReport> Reports = Degraded.examineAll();
  EXPECT_FALSE(Degraded.cacheActivity().ReportsFromCache);
  ASSERT_TRUE(Degraded.cacheActivity().Degradation);
  EXPECT_EQ(Degraded.cacheActivity().Degradation->Stage, "cache-load");
  EXPECT_EQ(Degraded.cacheActivity().Degradation->K,
            FailureReason::InternalError);
  ASSERT_EQ(Reports.size(), ColdReports.size());
  for (size_t I = 0; I != Reports.size(); ++I)
    EXPECT_EQ(Degraded.render(Reports[I]), Cold.render(ColdReports[I]));

  // The recompute re-published a good blob: next run is warm again.
  CounterexampleFinder Healed(B.T, Opts);
  Healed.examineAll();
  EXPECT_TRUE(Healed.cacheActivity().ReportsFromCache);
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, CancelledRunsAreNotStored) {
  std::string Dir = tempCacheDir("cancelled");
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;
  Opts.Cancellation.cancel(); // tripped before the run starts

  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  ASSERT_FALSE(Reports.empty());
  EXPECT_EQ(Reports[0].Status, CounterexampleStatus::Cancelled);

  AnalysisCache Cache(Dir);
  EXPECT_FALSE(std::filesystem::exists(
      Cache.blobPath(B.G, AutomatonKind::Lalr1, "rep", &Opts)));
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, RandomGrammarsRoundTripThroughDisk) {
  // The fuzz corpus through the full disk layer: store, reload, compare
  // canonical bytes.
  std::string Dir = tempCacheDir("random_disk");
  AnalysisCache Cache(Dir);
  for (uint64_t Seed = 0; Seed != 12; ++Seed) {
    std::string Text = lalrcex::testing::randomGrammarText(
        Seed, 4 + unsigned(Seed % 5), 4);
    std::optional<Grammar> G = parseGrammarText(Text);
    ASSERT_TRUE(G) << Text;
    GrammarAnalysis A(*G);
    if (!A.isProductive(G->startSymbol()))
      continue;
    Automaton M(*G, A);
    ParseTable T(M);
    ASSERT_EQ(Cache.storeAnalysis(T).Outcome, CacheOutcome::Stored) << Text;
    RestoredAnalysis Out;
    CacheProbe P = Cache.loadAnalysis(*G, A, AutomatonKind::Lalr1, Out);
    ASSERT_TRUE(P.hit()) << Text << P.Detail;
    EXPECT_EQ(serializeAnalysis(*Out.T), serializeAnalysis(T)) << Text;
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Conflict-granularity blobs
//===----------------------------------------------------------------------===//

/// Reuse-eligible deterministic budgets: the fine-grained layer switches
/// itself off under a finite cumulative budget (cross-conflict budget
/// coupling breaks report purity), so these tests cap only the
/// per-conflict step count.
FinderOptions fineGrainedOptions() {
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 50'000;
  return Opts;
}

/// serializeReports bytes with the wall-clock Seconds field zeroed on
/// every report — the only field that may differ between a cold
/// recompute and a re-served report of the same conflict.
std::string reportBytesNoTiming(const BuiltGrammar &B,
                                const FinderOptions &Opts,
                                std::vector<ConflictReport> Reports) {
  for (ConflictReport &R : Reports)
    R.Seconds = 0;
  return serializeReports(B.G, AutomatonKind::Lalr1, Opts, Reports);
}

TEST(ConflictBlobTest, SaveLoadSaveByteIdentical) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("SQL.3");
  FinderOptions Opts = fineGrainedOptions();
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  std::vector<Conflict> Conflicts = B.T.reportedConflicts();
  ASSERT_GE(Conflicts.size(), 2u);
  ASSERT_EQ(Reports.size(), Conflicts.size());

  ConflictKeyContext Ctx(B.M, Opts);
  for (size_t I = 0; I != Conflicts.size(); ++I) {
    Fingerprint128 Key = Ctx.conflictFingerprint(Conflicts[I]);
    std::string Blob = serializeConflictReport(Key, Reports[I]);
    ConflictReport Out;
    CacheProbe P =
        deserializeConflictReport(Blob, Key, B.G, Conflicts[I], Out);
    ASSERT_TRUE(P.hit()) << P.Detail;
    EXPECT_EQ(serializeConflictReport(Key, Out), Blob);
    EXPECT_EQ(Finder.render(Out), Finder.render(Reports[I]));
    EXPECT_EQ(Out.Seconds, Reports[I].Seconds);
  }

  // A blob presented for a different live conflict is rejected even
  // under its own key: the embedded conflict record disagrees, so a
  // fingerprint collision can never serve a wrong report.
  Fingerprint128 K0 = Ctx.conflictFingerprint(Conflicts[0]);
  std::string Blob = serializeConflictReport(K0, Reports[0]);
  ConflictReport Out;
  CacheProbe P = deserializeConflictReport(Blob, K0, B.G, Conflicts[1], Out);
  EXPECT_EQ(P.Outcome, CacheOutcome::KeyMismatch);
}

TEST(ConflictBlobTest, KeySensitivity) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("SQL.3");
  FinderOptions Opts = fineGrainedOptions();
  ConflictKeyContext Ctx(B.M, Opts);
  std::vector<Conflict> Conflicts = B.T.reportedConflicts();
  ASSERT_GE(Conflicts.size(), 2u);

  // Distinct conflicts get distinct keys (the conflict record is in the
  // key), and the same conflict keys identically across contexts.
  std::vector<std::string> Hexes;
  for (const Conflict &C : Conflicts)
    Hexes.push_back(Ctx.conflictFingerprint(C).hex());
  std::sort(Hexes.begin(), Hexes.end());
  EXPECT_EQ(std::unique(Hexes.begin(), Hexes.end()) - Hexes.begin(),
            long(Conflicts.size()));
  ConflictKeyContext Again(B.M, Opts);
  EXPECT_EQ(Again.conflictFingerprint(Conflicts[0]),
            Ctx.conflictFingerprint(Conflicts[0]));

  // Report-content options fold into the key; Jobs must not (reports
  // are byte-identical across job counts), and the version salt must.
  FinderOptions Budget = Opts;
  Budget.MaxConfigurations += 1;
  EXPECT_NE(ConflictKeyContext(B.M, Budget).conflictFingerprint(Conflicts[0]),
            Ctx.conflictFingerprint(Conflicts[0]));
  FinderOptions Jobs = Opts;
  Jobs.Jobs = 7;
  EXPECT_EQ(ConflictKeyContext(B.M, Jobs).conflictFingerprint(Conflicts[0]),
            Ctx.conflictFingerprint(Conflicts[0]));
  EXPECT_NE(ConflictKeyContext(B.M, Opts, FormatVersion + 1)
                .conflictFingerprint(Conflicts[0]),
            Ctx.conflictFingerprint(Conflicts[0]));
}

TEST(ConflictBlobTest, DamageDegradesOnlyThatConflict) {
  std::string Dir = tempCacheDir("crep_damage");
  BuiltGrammar B = BuiltGrammar::fromCorpus("SQL.3");
  FinderOptions Opts = fineGrainedOptions();
  Opts.CachePath = Dir;

  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  const size_t N = ColdReports.size();
  ASSERT_GE(N, 2u);
  EXPECT_EQ(Cold.cacheActivity().ConflictsReused, 0u);
  EXPECT_EQ(Cold.cacheActivity().ConflictsRecomputed, N);

  AnalysisCache Cache(Dir);
  ConflictKeyContext Ctx(B.M, Opts);
  std::vector<Conflict> Conflicts = B.T.reportedConflicts();
  std::string RepPath = Cache.blobPath(B.G, AutomatonKind::Lalr1, "rep",
                                       &Opts);

  // Bit-flip one conflict's blob. The whole-set blob is removed first so
  // the fine-grained path actually runs.
  ASSERT_TRUE(std::filesystem::remove(RepPath));
  std::string CrepPath =
      Cache.conflictBlobPath(Ctx.conflictFingerprint(Conflicts[0]));
  std::string Blob = readFile(CrepPath);
  ASSERT_GT(Blob.size(), 60u);
  Blob[50] = char(Blob[50] ^ 0x20);
  writeFile(CrepPath, Blob);

  CounterexampleFinder Warm(B.T, Opts);
  std::vector<ConflictReport> WarmReports = Warm.examineAll();
  EXPECT_FALSE(Warm.cacheActivity().ReportsFromCache);
  EXPECT_EQ(Warm.cacheActivity().ConflictsReused, N - 1);
  EXPECT_EQ(Warm.cacheActivity().ConflictsRecomputed, 1u);
  ASSERT_TRUE(Warm.cacheActivity().Degradation);
  EXPECT_EQ(Warm.cacheActivity().Degradation->Stage, "cache-load");
  EXPECT_EQ(Warm.cacheActivity().Degradation->K,
            FailureReason::InternalError);
  ASSERT_EQ(WarmReports.size(), N);
  EXPECT_EQ(reportBytesNoTiming(B, Opts, WarmReports),
            reportBytesNoTiming(B, Opts, ColdReports));

  // Truncating a different conflict's blob likewise degrades only that
  // conflict (the damaged blob was healed by the recompute above, and
  // the whole-set blob was re-published, so remove it again).
  ASSERT_TRUE(std::filesystem::remove(RepPath));
  std::string Crep1 =
      Cache.conflictBlobPath(Ctx.conflictFingerprint(Conflicts[1]));
  std::string Blob1 = readFile(Crep1);
  writeFile(Crep1, Blob1.substr(0, Blob1.size() / 2));

  CounterexampleFinder Trunc(B.T, Opts);
  std::vector<ConflictReport> TruncReports = Trunc.examineAll();
  EXPECT_EQ(Trunc.cacheActivity().ConflictsReused, N - 1);
  EXPECT_EQ(Trunc.cacheActivity().ConflictsRecomputed, 1u);
  ASSERT_TRUE(Trunc.cacheActivity().Degradation);
  EXPECT_EQ(reportBytesNoTiming(B, Opts, TruncReports),
            reportBytesNoTiming(B, Opts, ColdReports));
  std::filesystem::remove_all(Dir);
}

TEST(ConflictBlobTest, PartiallyPopulatedCacheRoundTrips) {
  // A missing `.crep` (e.g. a GC eviction) is a plain miss: the conflict
  // is recomputed, nothing is recorded as a degradation, and the
  // assembled report set is byte-identical to the cold one.
  std::string Dir = tempCacheDir("crep_partial");
  BuiltGrammar B = BuiltGrammar::fromCorpus("SQL.3");
  FinderOptions Opts = fineGrainedOptions();
  Opts.CachePath = Dir;

  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  const size_t N = ColdReports.size();
  ASSERT_GE(N, 2u);

  AnalysisCache Cache(Dir);
  ConflictKeyContext Ctx(B.M, Opts);
  std::vector<Conflict> Conflicts = B.T.reportedConflicts();
  ASSERT_TRUE(std::filesystem::remove(
      Cache.blobPath(B.G, AutomatonKind::Lalr1, "rep", &Opts)));
  ASSERT_TRUE(std::filesystem::remove(
      Cache.conflictBlobPath(Ctx.conflictFingerprint(Conflicts[1]))));

  CounterexampleFinder Partial(B.T, Opts);
  std::vector<ConflictReport> Reports = Partial.examineAll();
  EXPECT_EQ(Partial.cacheActivity().ConflictsReused, N - 1);
  EXPECT_EQ(Partial.cacheActivity().ConflictsRecomputed, 1u);
  EXPECT_FALSE(Partial.cacheActivity().Degradation);
  EXPECT_EQ(reportBytesNoTiming(B, Opts, Reports),
            reportBytesNoTiming(B, Opts, ColdReports));

  // The recompute re-published everything: the next run is a whole-set
  // hit again.
  CounterexampleFinder Healed(B.T, Opts);
  Healed.examineAll();
  EXPECT_TRUE(Healed.cacheActivity().ReportsFromCache);
  std::filesystem::remove_all(Dir);
}

TEST(ConflictBlobTest, FiniteCumulativeBudgetDisablesReuse) {
  // With a finite cumulative budget each conflict's effective budget
  // depends on its predecessors, so per-conflict reports are not pure
  // functions of their key: the fine-grained layer must switch off —
  // counters stay zero and no `.crep` blob is ever published. The
  // whole-set blob (one complete run's verbatim output) still works.
  std::string Dir = tempCacheDir("crep_cumulative");
  BuiltGrammar B = BuiltGrammar::fromCorpus("SQL.3");
  FinderOptions Opts = deterministicOptions(); // finite cumulative cap
  Opts.CachePath = Dir;

  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  ASSERT_GE(ColdReports.size(), 2u);
  EXPECT_EQ(Cold.cacheActivity().ConflictsReused, 0u);
  EXPECT_EQ(Cold.cacheActivity().ConflictsRecomputed, 0u);
  size_t Creps = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".crep")
      ++Creps;
  EXPECT_EQ(Creps, 0u);

  AnalysisCache Cache(Dir);
  ASSERT_TRUE(std::filesystem::remove(
      Cache.blobPath(B.G, AutomatonKind::Lalr1, "rep", &Opts)));
  CounterexampleFinder Again(B.T, Opts);
  std::vector<ConflictReport> AgainReports = Again.examineAll();
  EXPECT_FALSE(Again.cacheActivity().ReportsFromCache);
  EXPECT_EQ(Again.cacheActivity().ConflictsReused, 0u);
  EXPECT_EQ(Again.cacheActivity().ConflictsRecomputed, 0u);
  ASSERT_EQ(AgainReports.size(), ColdReports.size());
  for (size_t I = 0; I != AgainReports.size(); ++I)
    EXPECT_EQ(Again.render(AgainReports[I]), Cold.render(ColdReports[I]));
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Garbage collection
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheGcTest, EvictsOldestFirstAndSweepsTemps) {
  std::string Dir = tempCacheDir("gc_evict");
  std::filesystem::create_directories(Dir);
  writeFile(Dir + "/aaaa.crep", std::string(1'000, 'a'));
  writeFile(Dir + "/bbbb.crep", std::string(1'000, 'b'));
  writeFile(Dir + "/cccc.art", std::string(1'000, 'c'));
  writeFile(Dir + "/dddd.rep.tmp.9f", std::string(500, 't'));
  auto Now = std::filesystem::last_write_time(Dir + "/cccc.art");
  std::filesystem::last_write_time(Dir + "/aaaa.crep",
                                   Now - std::chrono::hours(2));
  std::filesystem::last_write_time(Dir + "/bbbb.crep",
                                   Now - std::chrono::hours(1));

  // 3000 live bytes against a 2000-byte budget: the temp file is always
  // swept, then exactly the oldest blob is evicted.
  AnalysisCache Cache(Dir);
  AnalysisCache::GcStats St = Cache.collectGarbage(2'000);
  EXPECT_EQ(St.ScannedFiles, 4u);
  EXPECT_EQ(St.ScannedBytes, 3'500u);
  EXPECT_EQ(St.RemovedFiles, 2u);
  EXPECT_EQ(St.RemovedBytes, 1'500u);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/aaaa.crep"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/bbbb.crep"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/cccc.art"));
  EXPECT_FALSE(std::filesystem::exists(Dir + "/dddd.rep.tmp.9f"));

  // Already under budget: nothing further to do.
  St = Cache.collectGarbage(2'000);
  EXPECT_EQ(St.ScannedFiles, 2u);
  EXPECT_EQ(St.RemovedFiles, 0u);

  // Zero budget: every blob goes; the directory itself stays.
  St = Cache.collectGarbage(0);
  EXPECT_EQ(St.RemovedFiles, 2u);
  EXPECT_TRUE(std::filesystem::is_empty(Dir));
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheGcTest, MissingDirectoryIsANoOp) {
  AnalysisCache Cache(tempCacheDir("gc_missing")); // never created
  AnalysisCache::GcStats St = Cache.collectGarbage(0);
  EXPECT_EQ(St.ScannedFiles, 0u);
  EXPECT_EQ(St.RemovedFiles, 0u);
}

TEST(AnalysisCacheGcTest, EvictedBlobsMissAndRepopulate) {
  // End-to-end with the finder: a full eviction is indistinguishable
  // from a cold cache — plain misses, correct reports, repopulation.
  std::string Dir = tempCacheDir("gc_finder");
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = fineGrainedOptions();
  Opts.CachePath = Dir;

  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  AnalysisCache Cache(Dir);
  Cache.collectGarbage(0);

  CounterexampleFinder Re(B.T, Opts);
  std::vector<ConflictReport> Reports = Re.examineAll();
  EXPECT_FALSE(Re.cacheActivity().ReportsFromCache);
  EXPECT_FALSE(Re.cacheActivity().Degradation);
  EXPECT_EQ(Re.cacheActivity().ConflictsReused, 0u);
  EXPECT_EQ(Re.cacheActivity().ConflictsRecomputed, Reports.size());
  EXPECT_EQ(reportBytesNoTiming(B, Opts, Reports),
            reportBytesNoTiming(B, Opts, ColdReports));

  CounterexampleFinder Warm(B.T, Opts);
  Warm.examineAll();
  EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache);
  std::filesystem::remove_all(Dir);
}

#if defined(LALRCEX_FAULT_INJECTION)
TEST(AnalysisCacheTest, InjectedCorruptionForcesColdRecompute) {
  std::string Dir = tempCacheDir("fault");
  AnalysisCache Cache(Dir);
  AnalysisSession Cold(loadCorpusGrammar("figure3"), AutomatonKind::Lalr1,
                       &Cache);
  ASSERT_FALSE(Cold.analysisFromCache());

  // With the one-shot CacheCorrupt fault armed, the next blob read is
  // treated as corrupt even though the file on disk is intact...
  faults::ScopedFault Armed(faults::Kind::CacheCorrupt);
  AnalysisSession Faulted(loadCorpusGrammar("figure3"),
                          AutomatonKind::Lalr1, &Cache);
  EXPECT_FALSE(Faulted.analysisFromCache());
  EXPECT_EQ(Faulted.analysisProbe().Outcome, CacheOutcome::Corrupt);
  EXPECT_EQ(Faulted.automaton().numStates(), Cold.automaton().numStates());

  // ...and the fault is one-shot: the run after it is warm again.
  AnalysisSession Warm(loadCorpusGrammar("figure3"), AutomatonKind::Lalr1,
                       &Cache);
  EXPECT_TRUE(Warm.analysisFromCache());
  std::filesystem::remove_all(Dir);
}
#endif // LALRCEX_FAULT_INJECTION

} // namespace
