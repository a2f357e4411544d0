//===- tests/CacheTest.cpp - Persistent analysis cache ---------*- C++ -*-===//
//
// Part of lalrcex.
//
// The cache subsystem's contract, tested from the bottom up: fingerprint
// stability and sensitivity, the report blob key (it moves with options,
// salt, kind and any production edit, not with names, precedence or
// %expect), save -> load -> save byte-identity, warm report sets
// byte-identical to cold across job counts, and graceful degradation —
// corrupt, truncated, mis-keyed, mis-ordered and version-mismatched blobs
// all fall back to a cold recompute with a structured probe/FailureReason,
// never a crash, and never at the cost of unbounded memory. The finder
// sections check one blob per grammar structure (a precedence variant's
// blob serves the conflicts it holds; a finite cumulative budget serves a
// blob only whole) and the collectGarbage() size cap (oldest-first
// whole-blob eviction, temp-file sweep; an evicted blob is a plain miss,
// never a degradation).
//
//===----------------------------------------------------------------------===//

#include "RandomGrammar.h"
#include "TestUtil.h"
#include "cache/AnalysisCache.h"
#include "counterexample/IncrementalSession.h"
#include "grammar/GrammarEdit.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

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

/// Overwrites the little-endian u32 at \p Off.
void putU32(std::string &Blob, size_t Off, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Blob[Off + I] = char((V >> (8 * I)) & 0xFF);
}

/// Recomputes a blob's trailing checksum, so an edited field reaches the
/// field decoders instead of failing the checksum.
void resealChecksum(std::string &Blob) {
  Fingerprint128 Sum = fingerprintBytes(Blob.data(), Blob.size() - 16);
  for (unsigned I = 0; I != 8; ++I) {
    Blob[Blob.size() - 16 + I] = char((Sum.Lo >> (8 * I)) & 0xFF);
    Blob[Blob.size() - 8 + I] = char((Sum.Hi >> (8 * I)) & 0xFF);
  }
}

/// The key of \p B's report blob under \p Opts.
Fingerprint128 blobKey(const BuiltGrammar &B, const FinderOptions &Opts) {
  return reportBlobKey(B.G, AutomatonKind::Lalr1, Opts,
                       B.T.reportedConflicts());
}

/// \p Reports as blob entries, without touched sets.
std::vector<StoredReport> entriesOf(const std::vector<ConflictReport> &Reports) {
  std::vector<StoredReport> Entries;
  for (const ConflictReport &R : Reports)
    Entries.push_back({R, {}});
  return Entries;
}

/// \p B's report blob under \p Opts, from a cacheless run.
std::string reportBlob(const BuiltGrammar &B, const FinderOptions &Opts) {
  CounterexampleFinder Finder(B.T, Opts);
  return serializeReportBlob(blobKey(B, Opts), entriesOf(Finder.examineAll()));
}

/// The files in cache directory \p Dir.
size_t fileCount(const std::string &Dir) {
  size_t N = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    N += E.is_regular_file();
  return N;
}

/// \p Rs as \p Finder renders them.
std::vector<std::string> renderAll(const CounterexampleFinder &Finder,
                                   const std::vector<ConflictReport> &Rs) {
  std::vector<std::string> Out;
  for (const ConflictReport &R : Rs)
    Out.push_back(Finder.render(R));
  return Out;
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

TEST(CacheRoundTripTest, ReportsSaveLoadSaveByteIdentical) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Cold = Finder.examineAll();
  ASSERT_FALSE(Cold.empty());

  Fingerprint128 Key = blobKey(B, Opts);
  std::string Blob = serializeReportBlob(Key, entriesOf(Cold));
  std::vector<StoredReport> Loaded;
  CacheProbe P = deserializeReportBlob(Blob, Key, B.G, Loaded);
  ASSERT_TRUE(P.hit()) << P.Detail;
  ASSERT_EQ(Loaded.size(), Cold.size());
  EXPECT_EQ(serializeReportBlob(Key, Loaded), Blob);

  // Loaded reports render identically (timing fields travel verbatim).
  for (const ConflictReport &R : Cold) {
    const StoredReport *E = findStoredReport(Loaded, R.TheConflict);
    ASSERT_TRUE(E);
    EXPECT_EQ(Finder.render(E->Report), Finder.render(R));
    EXPECT_EQ(E->Report.Seconds, R.Seconds);
    EXPECT_EQ(E->Report.Configurations, R.Configurations);
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
  std::string ColdBytes = reportBytes(ColdReports);

  for (unsigned Jobs : {1u, 4u}) {
    FinderOptions Warm = Cold;
    Warm.Jobs = Jobs;
    CounterexampleFinder WarmFinder(B.T, Warm);
    std::vector<ConflictReport> WarmReports = WarmFinder.examineAll();
    EXPECT_TRUE(WarmFinder.cacheActivity().ReportsFromCache)
        << "Jobs=" << Jobs;
    EXPECT_EQ(reportBytes(WarmReports), ColdBytes) << "Jobs=" << Jobs;
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Header validation at the serialization level
//===----------------------------------------------------------------------===//

TEST(CacheValidationTest, VersionSaltMismatchDetected) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  FinderOptions Opts = deterministicOptions();
  std::string Blob = reportBlob(B, Opts);
  std::vector<StoredReport> Out;
  CacheProbe P = deserializeReportBlob(Blob, blobKey(B, Opts), B.G, Out,
                                       FormatVersion + 1);
  EXPECT_EQ(P.Outcome, CacheOutcome::VersionMismatch);
  EXPECT_TRUE(P.degraded());
  EXPECT_TRUE(Out.empty());
}

TEST(CacheValidationTest, KeyMismatchDetected) {
  // A blob written for one grammar presented as another grammar's: the
  // embedded key disagrees with the expected one.
  BuiltGrammar A = BuiltGrammar::fromCorpus("figure1");
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  FinderOptions Opts = deterministicOptions();
  std::string Blob = reportBlob(A, Opts);
  std::vector<StoredReport> Out;
  CacheProbe P = deserializeReportBlob(Blob, blobKey(B, Opts), B.G, Out);
  EXPECT_EQ(P.Outcome, CacheOutcome::KeyMismatch);
  EXPECT_TRUE(Out.empty());
}

TEST(CacheValidationTest, EveryBitFlipIsRejected) {
  // Flip one bit at a sample of offsets across a report blob: the
  // trailing checksum (or, for flips inside the checksum itself, the
  // recomputed sum) must reject every single one — and never crash.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  FinderOptions Opts = deterministicOptions();
  std::string Blob = reportBlob(B, Opts);
  for (size_t Off = 0; Off < Blob.size(); Off += 7) {
    std::string Bad = Blob;
    Bad[Off] = char(Bad[Off] ^ 0x40);
    std::vector<StoredReport> Out;
    CacheProbe P = deserializeReportBlob(Bad, blobKey(B, Opts), B.G, Out);
    EXPECT_FALSE(P.hit()) << "offset " << Off;
  }
}

TEST(CacheValidationTest, TruncationIsRejected) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  FinderOptions Opts = deterministicOptions();
  std::string Blob = reportBlob(B, Opts);
  for (size_t Len : {size_t(0), size_t(7), size_t(27), Blob.size() / 2,
                     Blob.size() - 1}) {
    std::vector<StoredReport> Out;
    CacheProbe P = deserializeReportBlob(Blob.substr(0, Len),
                                         blobKey(B, Opts), B.G, Out);
    EXPECT_EQ(P.Outcome, CacheOutcome::Corrupt) << "length " << Len;
    EXPECT_TRUE(Out.empty()) << "length " << Len;
  }
}

TEST(CacheValidationTest, UnreadableBlobFilesDegrade) {
  // An empty file, a file cut inside an entry, and a directory at the
  // blob path each load as a degraded probe, never as a throw.
  std::string Dir = tempCacheDir("unreadable");
  AnalysisCache Cache(Dir);
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;
  CounterexampleFinder(B.T, Opts).examineAll();
  const Fingerprint128 Key = blobKey(B, Opts);
  const std::string Path = Cache.blobPath(Key);
  const std::string Blob = readFile(Path);
  ASSERT_GT(Blob.size(), 200u);

  auto expectDegraded = [&](const std::string &What) {
    std::vector<StoredReport> Loaded;
    CacheProbe P;
    EXPECT_NO_THROW(P = Cache.load(Key, B.G, Loaded)) << What;
    EXPECT_TRUE(P.Outcome == CacheOutcome::Corrupt ||
                P.Outcome == CacheOutcome::IoError)
        << What << ": " << toString(P.Outcome);
    EXPECT_TRUE(Loaded.empty()) << What;
  };
  writeFile(Path, "");
  expectDegraded("empty file");
  writeFile(Path, Blob.substr(0, Blob.size() / 2));
  expectDegraded("file cut inside an entry");
  std::filesystem::remove(Path);
  std::filesystem::create_directory(Path);
  expectDegraded("directory at the blob path");

  // The intact blob still loads.
  std::filesystem::remove(Path);
  writeFile(Path, Blob);
  std::vector<StoredReport> Loaded;
  EXPECT_EQ(Cache.load(Key, B.G, Loaded).Outcome, CacheOutcome::Hit);
  EXPECT_FALSE(Loaded.empty());
  std::filesystem::remove_all(Dir);
}

TEST(CacheValidationTest, ConflictCountPastBlobEndIsCorrupt) {
  // A report blob whose count claims far more entries than the blob
  // holds. The reader must reject it before sizing anything by the
  // count.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  std::string Blob = reportBlob(B, Opts);
  // The entry count opens the payload, right after the 28-byte header.
  putU32(Blob, 28, 0xFFFFFFFFu);
  resealChecksum(Blob);

  std::vector<StoredReport> Out;
  CacheProbe P = deserializeReportBlob(Blob, blobKey(B, Opts), B.G, Out);
  EXPECT_EQ(P.Outcome, CacheOutcome::Corrupt) << P.Detail;
  EXPECT_TRUE(Out.empty());
}

TEST(CacheValidationTest, ReportCountBoundedByRecordSize) {
  // A well-sealed report blob whose count equals its payload size in
  // bytes. Every entry takes at least 66 bytes, so the count cannot be
  // right. A bound by the byte count alone would value-initialize one
  // entry per payload byte (hundreds of MB here) before the reader
  // noticed the truncation.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  Fingerprint128 Key = blobKey(B, Opts);
  const std::string Real = serializeReportBlob(Key, {});
  const uint32_t Payload = 2u << 20;
  std::string Blob = Real.substr(0, 28) + std::string(4 + Payload, '\0') +
                     std::string(16, '\0');
  putU32(Blob, 28, Payload);
  resealChecksum(Blob);

  auto peakRssKb = [] {
    struct rusage U;
    getrusage(RUSAGE_SELF, &U);
    return long(U.ru_maxrss);
  };
  long Before = peakRssKb();
  std::vector<StoredReport> Out;
  CacheProbe P = deserializeReportBlob(Blob, Key, B.G, Out);
  long GrowthKb = peakRssKb() - Before;
  EXPECT_EQ(P.Outcome, CacheOutcome::Corrupt) << P.Detail;
  EXPECT_TRUE(Out.empty());
  EXPECT_LT(GrowthKb, 64 * 1024) << "peak RSS grew by " << GrowthKb << " kB";
}

TEST(CacheValidationTest, EntriesMustAscendStrictly) {
  // Two well-sealed blobs whose entries are each valid on their own: one
  // lists two records in descending order, the other one record twice.
  // Lookups bisect and a record must never carry two reports, so both
  // are corrupt.
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<ConflictReport> Reports = Finder.examineAll();
  ASSERT_GE(Reports.size(), 2u);
  std::sort(Reports.begin(), Reports.end(),
            [](const ConflictReport &X, const ConflictReport &Y) {
              return conflictRecordLess(X.TheConflict, Y.TheConflict);
            });
  Fingerprint128 Key = blobKey(B, Opts);
  // One entry's bytes: a single-entry blob minus header, count, checksum.
  auto entryBytes = [&](const ConflictReport &R) {
    std::string One = serializeReportBlob(Key, entriesOf({R}));
    return One.substr(32, One.size() - 48);
  };
  const std::string Header = serializeReportBlob(Key, {}).substr(0, 28);
  for (const auto &[First, Second] :
       {std::pair(&Reports[1], &Reports[0]),
        std::pair(&Reports[0], &Reports[0])}) {
    std::string Blob = Header + std::string(4, '\0') + entryBytes(*First) +
                       entryBytes(*Second) + std::string(16, '\0');
    putU32(Blob, 28, 2);
    resealChecksum(Blob);
    std::vector<StoredReport> Out;
    CacheProbe P = deserializeReportBlob(Blob, Key, B.G, Out);
    EXPECT_EQ(P.Outcome, CacheOutcome::Corrupt) << P.Detail;
    EXPECT_EQ(P.Detail, "entries not ascending");
    EXPECT_TRUE(Out.empty());
  }
}

//===----------------------------------------------------------------------===//
// The on-disk layer
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, SessionColdThenWarm) {
  // The batch pipeline: AnalysisSession builds automaton + table, and the
  // finder serves the second run's report set from its `.rep` blob.
  std::string Dir = tempCacheDir("session");
  AnalysisCache Cache(Dir);
  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;

  AnalysisSession Cold(loadCorpusGrammar("SQL.2"), AutomatonKind::Lalr1,
                       &Cache);
  CounterexampleFinder ColdFinder(Cold.table(), Opts);
  std::vector<ConflictReport> ColdReports = ColdFinder.examineAll();
  ASSERT_FALSE(ColdReports.empty());
  EXPECT_FALSE(ColdFinder.cacheActivity().ReportsFromCache);
  EXPECT_FALSE(ColdFinder.cacheActivity().Degradation);

  AnalysisSession Warm(loadCorpusGrammar("SQL.2"), AutomatonKind::Lalr1,
                       &Cache);
  CounterexampleFinder WarmFinder(Warm.table(), Opts);
  std::vector<ConflictReport> WarmReports = WarmFinder.examineAll();
  EXPECT_TRUE(WarmFinder.cacheActivity().ReportsFromCache);
  EXPECT_EQ(WarmFinder.cacheActivity().ConflictsReused, WarmReports.size());
  EXPECT_EQ(reportBytes(WarmReports), reportBytes(ColdReports));

  // Report blobs are all the cache holds, and the session ignores its
  // cache argument: built without one, the table is the same.
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    EXPECT_EQ(E.path().extension(), ".rep") << E.path();
  AnalysisSession Plain(loadCorpusGrammar("SQL.2"), AutomatonKind::Lalr1,
                        nullptr);
  expectSameTable(Plain.table(), Warm.table(), "SQL.2");
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, GrammarEditInvalidates) {
  // Content addressing: after a rule edit the new key simply misses; the
  // stale blob is never consulted.
  std::string Dir = tempCacheDir("edit");
  AnalysisCache Cache(Dir);
  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;
  BuiltGrammar B1 = BuiltGrammar::fromText("%%\ne : e PLUS e | x ;\n");
  CounterexampleFinder F1(B1.T, Opts);
  F1.examineAll();
  ASSERT_TRUE(std::filesystem::exists(Cache.blobPath(blobKey(B1, Opts))));

  BuiltGrammar B2 =
      BuiltGrammar::fromText("%%\ne : e PLUS e | e TIMES e | x ;\n");
  std::vector<StoredReport> Loaded;
  EXPECT_EQ(Cache.load(blobKey(B2, Opts), B2.G, Loaded).Outcome,
            CacheOutcome::Miss);
  CounterexampleFinder F2(B2.T, Opts);
  std::vector<ConflictReport> Reports = F2.examineAll();
  EXPECT_FALSE(F2.cacheActivity().ReportsFromCache);
  EXPECT_FALSE(F2.cacheActivity().Degradation);
  EXPECT_EQ(F2.cacheActivity().ConflictsRecomputed, Reports.size());
  FinderOptions NoCache = Opts;
  NoCache.CachePath.clear();
  CounterexampleFinder Plain(B2.T, NoCache);
  EXPECT_EQ(renderAll(F2, Reports), renderAll(Plain, Plain.examineAll()));
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, CorruptBlobDegradesToColdRecompute) {
  std::string Dir = tempCacheDir("corrupt");
  AnalysisCache Cache(Dir);
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure1");
  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;
  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  ASSERT_FALSE(Cold.cacheActivity().ReportsFromCache);

  // Flip one payload byte in the stored blob.
  std::string Path = Cache.blobPath(blobKey(B, Opts));
  std::string Blob = readFile(Path);
  ASSERT_GT(Blob.size(), 60u);
  Blob[50] = char(Blob[50] ^ 0xFF);
  writeFile(Path, Blob);

  std::vector<StoredReport> Loaded;
  CacheProbe P = Cache.load(blobKey(B, Opts), B.G, Loaded);
  EXPECT_EQ(P.Outcome, CacheOutcome::Corrupt);
  EXPECT_TRUE(P.degraded());
  EXPECT_TRUE(Loaded.empty());

  // The recompute is correct despite the damaged blob.
  CounterexampleFinder Recovered(B.T, Opts);
  std::vector<ConflictReport> Reports = Recovered.examineAll();
  EXPECT_FALSE(Recovered.cacheActivity().ReportsFromCache);
  EXPECT_EQ(Recovered.cacheActivity().ConflictsRecomputed, Reports.size());
  ASSERT_TRUE(Recovered.cacheActivity().Degradation);
  EXPECT_EQ(renderAll(Recovered, Reports), renderAll(Cold, ColdReports));
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, LeftoverArtifactBlobsAreNeverRead) {
  // A directory last written by builds that also stored automaton
  // (`.art`), state-item graph (`.sig`) and per-conflict (`.crep`) blobs:
  // those files are never opened, so even garbage in them costs nothing,
  // and GC evicts them like any other blob.
  std::string Dir = tempCacheDir("leftover");
  std::filesystem::create_directories(Dir);
  AnalysisCache Cache(Dir);
  AnalysisSession Session(loadCorpusGrammar("figure1"),
                          AutomatonKind::Lalr1, &Cache);
  const std::string Stem =
      Dir + "/" +
      grammarFingerprint(Session.grammar(), AutomatonKind::Lalr1).hex();
  writeFile(Stem + ".art", std::string(300, 'a'));
  writeFile(Stem + ".sig", std::string(300, 's'));
  writeFile(Stem + ".crep", std::string(300, 'c'));

  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;
  CounterexampleFinder Cold(Session.table(), Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  EXPECT_FALSE(Cold.cacheActivity().ReportsFromCache);
  EXPECT_FALSE(Cold.cacheActivity().Degradation);
  FinderOptions NoCache = Opts;
  NoCache.CachePath.clear();
  CounterexampleFinder Plain(Session.table(), NoCache);
  EXPECT_EQ(renderAll(Cold, ColdReports),
            renderAll(Plain, Plain.examineAll()));

  CounterexampleFinder Warm(Session.table(), Opts);
  Warm.examineAll();
  EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache);
  EXPECT_FALSE(Warm.cacheActivity().Degradation);

  Cache.collectGarbage(0);
  EXPECT_FALSE(std::filesystem::exists(Stem + ".art"));
  EXPECT_FALSE(std::filesystem::exists(Stem + ".sig"));
  EXPECT_FALSE(std::filesystem::exists(Stem + ".crep"));
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
  std::string RepPath = Cache.blobPath(blobKey(B, Opts));
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
  EXPECT_FALSE(std::filesystem::exists(Cache.blobPath(blobKey(B, Opts))));
  EXPECT_FALSE(std::filesystem::exists(Dir) && fileCount(Dir) != 0);
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, RandomGrammarsRoundTripThroughDisk) {
  // The fuzz corpus through the full disk layer: store each grammar's
  // report set, reload it, compare canonical bytes.
  std::string Dir = tempCacheDir("random_disk");
  AnalysisCache Cache(Dir);
  FinderOptions Opts = deterministicOptions();
  Opts.MaxConfigurations = 5'000;
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
    CounterexampleFinder Finder(T, Opts);
    std::vector<ConflictReport> Reports = Finder.examineAll();
    Fingerprint128 Key = reportBlobKey(*G, AutomatonKind::Lalr1, Opts,
                                       T.reportedConflicts());
    ASSERT_EQ(Cache.store(Key, entriesOf(Reports)).Outcome,
              CacheOutcome::Stored)
        << Text;
    std::vector<StoredReport> Out;
    CacheProbe P = Cache.load(Key, *G, Out);
    ASSERT_TRUE(P.hit()) << Text << P.Detail;
    EXPECT_EQ(serializeReportBlob(Key, Out),
              serializeReportBlob(Key, entriesOf(Reports)))
        << Text;
  }
  std::filesystem::remove_all(Dir);
}

TEST(AnalysisCacheTest, OneBlobPerStructure) {
  // One grammar structure, one file: a cold run leaves a single blob, a
  // rename is served whole from it without rewriting it, and a
  // structural edit through an IncrementalSession handoff adds exactly
  // one blob for its new structure, reading the first one untouched.
  std::string Dir = tempCacheDir("one_blob");
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 50'000;
  Opts.CachePath = Dir;

  Grammar G = loadCorpusGrammar("SQL.3");
  EditableGrammar Model = EditableGrammar::fromGrammar(G);
  IncrementalSession Sess(G);
  auto run = [&](const IncrementalHandoff *H) {
    FinderOptions O = Opts;
    O.Incremental = H;
    CounterexampleFinder Finder(Sess.table(), O);
    size_t N = Finder.examineAll().size();
    return std::make_pair(N, Finder.cacheActivity());
  };

  auto [N, Cold] = run(nullptr);
  ASSERT_GE(N, 2u);
  EXPECT_EQ(Cold.ConflictsRecomputed, N);
  ASSERT_EQ(fileCount(Dir), 1u);
  const std::filesystem::path Blob =
      std::filesystem::directory_iterator(Dir)->path();
  const std::string Bytes = readFile(Blob.string());
  // Backdated, so a rewrite with identical bytes still shows.
  const auto Stamp =
      std::filesystem::last_write_time(Blob) - std::chrono::hours(1);
  std::filesystem::last_write_time(Blob, Stamp);

  EditRng Rng(5);
  ASSERT_TRUE(applyRandomEdit(Model, Rng, {EditKind::RenameNonterminal}));
  std::optional<Grammar> Renamed = Model.build();
  ASSERT_TRUE(Renamed);
  Sess.advance(*Renamed);
  auto [NR, Rename] = run(Sess.handoff());
  EXPECT_EQ(NR, N);
  EXPECT_TRUE(Rename.ReportsFromCache);
  EXPECT_EQ(Rename.ConflictsReused, N);
  EXPECT_EQ(fileCount(Dir), 1u);
  EXPECT_EQ(readFile(Blob.string()), Bytes);
  EXPECT_EQ(std::filesystem::last_write_time(Blob), Stamp);

  ASSERT_TRUE(applyRandomEdit(Model, Rng, {EditKind::AddAlternative}));
  std::optional<Grammar> Edited = Model.build();
  ASSERT_TRUE(Edited);
  Sess.advance(*Edited);
  ASSERT_TRUE(Sess.handoff());
  auto [NE, Edit] = run(Sess.handoff());
  EXPECT_FALSE(Edit.ReportsFromCache);
  EXPECT_EQ(Edit.ConflictsReused + Edit.ConflictsRemapped +
                Edit.ConflictsRecomputed,
            NE);
  EXPECT_EQ(fileCount(Dir), 2u);
  EXPECT_EQ(readFile(Blob.string()), Bytes);
  EXPECT_EQ(std::filesystem::last_write_time(Blob), Stamp);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// One blob per grammar structure
//===----------------------------------------------------------------------===//

/// Reuse-eligible deterministic budgets: a finite cumulative budget
/// couples conflicts (a blob is then served only whole), so these tests
/// cap only the per-conflict step count.
FinderOptions fineGrainedOptions() {
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 50'000;
  return Opts;
}

/// reportBytes with the wall-clock Seconds field zeroed on every report —
/// the only field that may differ between a cold recompute and a
/// re-served report of the same conflict.
std::string reportBytesNoTiming(std::vector<ConflictReport> Reports) {
  for (ConflictReport &R : Reports)
    R.Seconds = 0;
  return reportBytes(Reports);
}

/// An expression grammar and its precedence variant: one structure
/// (every symbol declared up front, so the ids agree), but `%left PLUS`
/// settles the conflict of `e PLUS e` on PLUS, so the variant reports a
/// strict subset of the base's conflicts.
const char *const ExprBase =
    "%token PLUS TIMES x\n%%\ne : e PLUS e | e TIMES e | x ;\n";
const char *const ExprLeftPlus =
    "%token PLUS TIMES x\n%left PLUS\n%%\ne : e PLUS e | e TIMES e | x ;\n";

TEST(ConflictBlobTest, SaveLoadSaveByteIdentical) {
  BuiltGrammar B = BuiltGrammar::fromCorpus("SQL.3");
  FinderOptions Opts = fineGrainedOptions();
  CounterexampleFinder Finder(B.T, Opts);
  std::vector<Conflict> Conflicts = B.T.reportedConflicts();
  ASSERT_GE(Conflicts.size(), 2u);

  // Every conflict but the second, each with its search's touched set.
  StateItemGraph Graph(B.M);
  std::vector<StoredReport> Entries;
  for (size_t I = 0; I != Conflicts.size(); ++I) {
    if (I == 1)
      continue;
    GraphTouchRecorder Rec(Graph.numNodes());
    StoredReport E;
    {
      ScopedGraphTouchRecorder Scope(&Rec);
      E.Report = Finder.examine(Conflicts[I]);
    }
    E.Touched = Rec.sortedNodes();
    Entries.push_back(std::move(E));
  }

  Fingerprint128 Key = blobKey(B, Opts);
  std::string Blob = serializeReportBlob(Key, Entries);
  std::vector<StoredReport> Out;
  CacheProbe P = deserializeReportBlob(Blob, Key, B.G, Out);
  ASSERT_TRUE(P.hit()) << P.Detail;
  ASSERT_EQ(Out.size(), Entries.size());
  EXPECT_EQ(serializeReportBlob(Key, Out), Blob);
  for (const StoredReport &E : Entries) {
    const StoredReport *L = findStoredReport(Out, E.Report.TheConflict);
    ASSERT_TRUE(L);
    EXPECT_EQ(Finder.render(L->Report), Finder.render(E.Report));
    EXPECT_EQ(L->Report.Seconds, E.Report.Seconds);
    EXPECT_FALSE(L->Touched.empty());
    EXPECT_EQ(L->Touched, E.Touched);
  }

  // A record absent from the set misses: the blob never serves one
  // conflict's report for another.
  EXPECT_EQ(findStoredReport(Out, Conflicts[1]), nullptr);
}

TEST(ConflictBlobTest, KeySensitivity) {
  BuiltGrammar B = BuiltGrammar::fromText(ExprBase);
  FinderOptions Opts = fineGrainedOptions();
  std::vector<Conflict> Conflicts = B.T.reportedConflicts();
  ASSERT_GE(Conflicts.size(), 2u);
  const Fingerprint128 K = blobKey(B, Opts);
  EXPECT_EQ(blobKey(B, Opts), K);

  // Report-content options, the version salt and the automaton kind fold
  // into the key; Jobs must not (reports are byte-identical across job
  // counts).
  FinderOptions Budget = Opts;
  Budget.MaxConfigurations += 1;
  EXPECT_NE(blobKey(B, Budget), K);
  FinderOptions Jobs = Opts;
  Jobs.Jobs = 7;
  EXPECT_EQ(blobKey(B, Jobs), K);
  EXPECT_NE(reportBlobKey(B.G, AutomatonKind::Lalr1, Opts, Conflicts,
                          FormatVersion + 1),
            K);
  EXPECT_NE(reportBlobKey(B.G, AutomatonKind::Canonical, Opts, Conflicts), K);

  // Names, precedence and %expect leave the structure as it is; any
  // production edit moves it.
  for (const char *Same :
       {"%token PLUS TIMES x\n%%\nexpr : expr PLUS expr | expr TIMES expr "
        "| x ;\n",
        "%token ADD TIMES x\n%%\ne : e ADD e | e TIMES e | x ;\n",
        ExprLeftPlus, "%token PLUS TIMES x\n%expect 4\n%%\ne : e PLUS e "
                      "| e TIMES e | x ;\n"})
    EXPECT_EQ(blobKey(BuiltGrammar::fromText(Same), Opts), K) << Same;
  for (const char *Moved :
       {"%token PLUS TIMES x\n%%\ne : e PLUS e | e TIMES e | x | e x ;\n",
        "%token PLUS TIMES x\n%%\ne : e TIMES e | e PLUS e | x ;\n",
        "%token PLUS TIMES x\n%%\ne : e PLUS e | e TIMES x | x ;\n"})
    EXPECT_NE(blobKey(BuiltGrammar::fromText(Moved), Opts), K) << Moved;

  // Under a finite cumulative budget the reported conflict list folds in
  // too; otherwise it is ignored.
  std::vector<Conflict> Fewer(Conflicts.begin(), Conflicts.end() - 1);
  EXPECT_EQ(reportBlobKey(B.G, AutomatonKind::Lalr1, Opts, Fewer), K);
  FinderOptions Coupled = Opts;
  Coupled.CumulativeMaxConfigurations = 200'000;
  EXPECT_NE(reportBlobKey(B.G, AutomatonKind::Lalr1, Coupled, Fewer),
            reportBlobKey(B.G, AutomatonKind::Lalr1, Coupled, Conflicts));
}

TEST(ConflictBlobTest, PartiallyPopulatedCacheRoundTrips) {
  // A precedence variant of one structure reports a subset of its
  // conflicts and shares its blob: the base then serves the conflicts the
  // variant stored, recomputes the rest without a degradation, and
  // assembles a report set byte-identical to a cold run; the merged blob
  // makes the run after that a full hit.
  std::string Dir = tempCacheDir("blob_partial");
  FinderOptions Opts = fineGrainedOptions();
  Opts.CachePath = Dir;
  BuiltGrammar Base = BuiltGrammar::fromText(ExprBase);
  BuiltGrammar Variant = BuiltGrammar::fromText(ExprLeftPlus);
  ASSERT_EQ(blobKey(Base, Opts), blobKey(Variant, Opts));

  CounterexampleFinder First(Variant.T, Opts);
  const size_t Held = First.examineAll().size();
  const size_t N = Base.T.reportedConflicts().size();
  ASSERT_GT(Held, 0u);
  ASSERT_LT(Held, N);

  CounterexampleFinder Partial(Base.T, Opts);
  std::vector<ConflictReport> Reports = Partial.examineAll();
  EXPECT_FALSE(Partial.cacheActivity().ReportsFromCache);
  EXPECT_EQ(Partial.cacheActivity().ConflictsReused, Held);
  EXPECT_EQ(Partial.cacheActivity().ConflictsRecomputed, N - Held);
  EXPECT_FALSE(Partial.cacheActivity().Degradation);
  FinderOptions NoCache = Opts;
  NoCache.CachePath.clear();
  CounterexampleFinder Plain(Base.T, NoCache);
  EXPECT_EQ(reportBytesNoTiming(Reports),
            reportBytesNoTiming(Plain.examineAll()));

  CounterexampleFinder Healed(Base.T, Opts);
  Healed.examineAll();
  EXPECT_TRUE(Healed.cacheActivity().ReportsFromCache);
  EXPECT_EQ(Healed.cacheActivity().ConflictsReused, N);
  EXPECT_EQ(fileCount(Dir), 1u);
  std::filesystem::remove_all(Dir);
}

TEST(ConflictBlobTest, FiniteCumulativeBudgetDisablesReuse) {
  // With a finite cumulative budget each conflict's effective budget
  // depends on its predecessors, so a report is not a function of its
  // own record: the key folds the reported conflict list, and a blob is
  // served only whole. The precedence variant's blob therefore serves
  // the base nothing, and the base renders exactly like a cacheless run.
  std::string Dir = tempCacheDir("blob_cumulative");
  FinderOptions Opts = deterministicOptions(); // finite cumulative cap
  Opts.CachePath = Dir;
  BuiltGrammar Base = BuiltGrammar::fromText(ExprBase);
  BuiltGrammar Variant = BuiltGrammar::fromText(ExprLeftPlus);

  CounterexampleFinder First(Variant.T, Opts);
  ASSERT_GT(First.examineAll().size(), 0u);

  CounterexampleFinder Again(Base.T, Opts);
  std::vector<ConflictReport> Reports = Again.examineAll();
  const size_t N = Reports.size();
  ASSERT_GE(N, 3u);
  EXPECT_FALSE(Again.cacheActivity().ReportsFromCache);
  EXPECT_EQ(Again.cacheActivity().ConflictsReused, 0u);
  EXPECT_EQ(Again.cacheActivity().ConflictsRemapped, 0u);
  EXPECT_EQ(Again.cacheActivity().ConflictsRecomputed, N);
  FinderOptions NoCache = Opts;
  NoCache.CachePath.clear();
  CounterexampleFinder Plain(Base.T, NoCache);
  const std::vector<ConflictReport> PlainReports = Plain.examineAll();
  EXPECT_EQ(renderAll(Again, Reports), renderAll(Plain, PlainReports));
  EXPECT_EQ(reportBytesNoTiming(Reports), reportBytesNoTiming(PlainReports));

  // The base's own blob is then served whole...
  CounterexampleFinder Warm(Base.T, Opts);
  Warm.examineAll();
  EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache);
  EXPECT_EQ(Warm.cacheActivity().ConflictsReused, N);
  EXPECT_EQ(fileCount(Dir), 2u);

  // ...or not at all: a well-formed blob under the base's key that lacks
  // one of its conflicts serves none of the others. Every planted report
  // carries a sentinel configuration count, so a served one shows in the
  // report bytes; each run recomputes every conflict once, in order.
  AnalysisCache Cache(Dir);
  for (size_t Drop : {N - 1, size_t(1)}) {
    SCOPED_TRACE("without conflict #" + std::to_string(Drop));
    std::vector<ConflictReport> Planted;
    for (size_t I = 0; I != N; ++I) {
      if (I == Drop)
        continue;
      Planted.push_back(Reports[I]);
      Planted.back().Configurations = 987'654'321;
    }
    ASSERT_EQ(Cache.store(blobKey(Base, Opts), entriesOf(Planted)).Outcome,
              CacheOutcome::Stored);
    CounterexampleFinder Cut(Base.T, Opts);
    std::vector<ConflictReport> CutReports = Cut.examineAll();
    EXPECT_FALSE(Cut.cacheActivity().ReportsFromCache);
    EXPECT_EQ(Cut.cacheActivity().ConflictsReused, 0u);
    EXPECT_EQ(Cut.cacheActivity().ConflictsRecomputed, N);
    EXPECT_FALSE(Cut.cacheActivity().Degradation);
    EXPECT_EQ(reportBytesNoTiming(CutReports),
              reportBytesNoTiming(PlainReports));
  }
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
  EXPECT_EQ(reportBytesNoTiming(Reports),
            reportBytesNoTiming(ColdReports));

  CounterexampleFinder Warm(B.T, Opts);
  Warm.examineAll();
  EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache);
  std::filesystem::remove_all(Dir);
}

#if defined(LALRCEX_FAULT_INJECTION)
TEST(AnalysisCacheTest, InjectedCorruptionForcesColdRecompute) {
  std::string Dir = tempCacheDir("fault");
  BuiltGrammar B = BuiltGrammar::fromCorpus("figure3");
  FinderOptions Opts = deterministicOptions();
  Opts.CachePath = Dir;
  CounterexampleFinder Cold(B.T, Opts);
  std::vector<ConflictReport> ColdReports = Cold.examineAll();
  ASSERT_FALSE(Cold.cacheActivity().ReportsFromCache);

  // With the one-shot CacheCorrupt fault armed, the next blob read (the
  // finder's `.rep` probe) is treated as corrupt even though the file on
  // disk is intact...
  faults::ScopedFault Armed(faults::Kind::CacheCorrupt);
  CounterexampleFinder Faulted(B.T, Opts);
  std::vector<ConflictReport> Reports = Faulted.examineAll();
  EXPECT_FALSE(Faulted.cacheActivity().ReportsFromCache);
  ASSERT_TRUE(Faulted.cacheActivity().Degradation);
  EXPECT_NE(Faulted.cacheActivity().Degradation->Detail.find("corrupt"),
            std::string::npos);
  EXPECT_EQ(renderAll(Faulted, Reports), renderAll(Cold, ColdReports));

  // ...and the fault is one-shot: the run after it is warm again.
  CounterexampleFinder Warm(B.T, Opts);
  Warm.examineAll();
  EXPECT_TRUE(Warm.cacheActivity().ReportsFromCache);
  std::filesystem::remove_all(Dir);
}
#endif // LALRCEX_FAULT_INJECTION

} // namespace
