//===- tests/fuzz/fuzz_cache_blobs.cpp - Cache blob fuzz target -*- C++ -*-===//
//
// Part of lalrcex.
//
// Fuzzes the cache's report blob reader against the contract in
// cache/AnalysisCache.h: blobs are untrusted input, so for ANY byte
// sequence the reader must return a probe (never throw, crash, or hang),
// and a Hit must be usable downstream — every restored report renders,
// entries are strictly ascending by conflict record (so lookups find
// exactly the stored records), every restored touched set is strictly
// ascending, and the entries re-serialize into a blob the reader accepts
// and writes back byte for byte.
//
// The input is the blob itself, read against figure1. Before each read
// the harness re-seals the trailing 16-byte checksum over the bytes
// before it, so mutations reach the field decoders instead of stopping
// at the checksum.
//
// Two build modes share this file, as with fuzz_grammar_parser.cpp:
//
//   * with -DLALRCEX_LIBFUZZER it exports LLVMFuzzerTestOneInput for
//     coverage-guided fuzzing; when LALRCEX_FUZZ_SEED_DIR names a
//     directory, LLVMFuzzerInitialize first writes figure1's real blob
//     into it so the corpus starts past the header checks;
//   * otherwise it gets a standalone main() that seeds from figure1's real
//     blob (every conflict's report with its search's touched set),
//     serialized in-process, replays any extra seed files, and then runs
//     a deterministic mutational loop:
//
//       fuzz_cache_blobs [-runs N] [corpus-dir | seed-file]...
//
//===----------------------------------------------------------------------===//

#include "cache/AnalysisCache.h"
#include "corpus/Corpus.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace lalrcex;
using namespace lalrcex::cache;

namespace {

void check(bool Cond, const char *What) {
  if (Cond)
    return;
  std::fprintf(stderr, "fuzz invariant violated: %s\n", What);
  std::abort();
}

/// Deterministic budgets, so the seeded report blobs are repeatable.
FinderOptions fuzzOptions() {
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 20'000;
  return Opts;
}

/// Everything the reader is probed against, built once.
struct Figure1 {
  Grammar G;
  GrammarAnalysis A;
  Automaton M;
  ParseTable T;
  StateItemGraph Graph;
  FinderOptions Opts;
  CounterexampleFinder Finder;
  std::vector<Conflict> Conflicts;
  Fingerprint128 Key; ///< figure1's report blob key

  Figure1()
      : G(loadCorpusGrammar("figure1")), A(G), M(G, A), T(M), Graph(M),
        Opts(fuzzOptions()), Finder(T, Opts),
        Conflicts(T.reportedConflicts()),
        Key(reportBlobKey(G, AutomatonKind::Lalr1, Opts, Conflicts)) {}
};

const Figure1 &figure1() {
  static const Figure1 F;
  return F;
}

/// Recomputes the trailing checksum over everything before it.
void reseal(std::string &Blob) {
  if (Blob.size() < 16)
    return;
  Fingerprint128 Sum = fingerprintBytes(Blob.data(), Blob.size() - 16);
  for (unsigned I = 0; I != 8; ++I) {
    Blob[Blob.size() - 16 + I] = char((Sum.Lo >> (8 * I)) & 0xFF);
    Blob[Blob.size() - 8 + I] = char((Sum.Hi >> (8 * I)) & 0xFF);
  }
}

/// The property under test. Separated from the libFuzzer entry point so
/// the standalone driver can reuse it verbatim.
void checkOneInput(const uint8_t *Data, size_t Size) {
  const Figure1 &F = figure1();
  std::string Blob(reinterpret_cast<const char *>(Data), Size);
  reseal(Blob);

  std::vector<StoredReport> Out;
  CacheProbe P = deserializeReportBlob(Blob, F.Key, F.G, Out);
  if (!P.hit())
    return;
  for (size_t I = 0; I != Out.size(); ++I) {
    const StoredReport &E = Out[I];
    (void)F.Finder.render(E.Report);
    if (I != 0)
      check(conflictRecordLess(Out[I - 1].Report.TheConflict,
                               E.Report.TheConflict),
            "entries strictly ascending by conflict record");
    check(findStoredReport(Out, E.Report.TheConflict) == &E,
          "lookup finds the stored record");
    for (size_t J = 1; J < E.Touched.size(); ++J)
      check(E.Touched[J - 1] < E.Touched[J], "touched set strictly ascending");
  }
  // The writer and the reader agree: what loaded re-serializes into a
  // blob that loads back and serializes to the same bytes.
  std::string Again = serializeReportBlob(F.Key, Out);
  std::vector<StoredReport> Reloaded;
  check(deserializeReportBlob(Again, F.Key, F.G, Reloaded).hit() &&
            serializeReportBlob(F.Key, Reloaded) == Again,
        "a loaded blob round-trips through the writer");
}

/// figure1's real blob: every conflict's report with its search's touched
/// set.
std::vector<std::string> seedInputs() {
  const Figure1 &F = figure1();
  CounterexampleFinder Finder(F.T, F.Opts);
  std::vector<StoredReport> Entries;
  for (const Conflict &C : F.Conflicts) {
    GraphTouchRecorder Rec(F.Graph.numNodes());
    StoredReport E;
    {
      ScopedGraphTouchRecorder Scope(&Rec);
      E.Report = Finder.examine(C);
    }
    E.Touched = Rec.sortedNodes();
    Entries.push_back(std::move(E));
  }
  return {serializeReportBlob(F.Key, Entries)};
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  checkOneInput(Data, Size);
  return 0;
}

#ifdef LALRCEX_LIBFUZZER

#include <fstream>

extern "C" int LLVMFuzzerInitialize(int *, char ***) {
  const char *Dir = std::getenv("LALRCEX_FUZZ_SEED_DIR");
  if (!Dir)
    return 0;
  std::vector<std::string> Seeds = seedInputs();
  for (size_t I = 0; I != Seeds.size(); ++I) {
    std::ofstream OS(std::string(Dir) + "/seed-" + std::to_string(I),
                     std::ios::binary | std::ios::trunc);
    OS << Seeds[I];
  }
  return 0;
}

#else // !LALRCEX_LIBFUZZER

#include "FuzzDriver.h"

namespace {

using fuzz::Rng;

/// One random edit of the blob bytes: byte flips, boundary values written
/// as little-endian u32s (the reader's counts and ids), deletions, span
/// duplication, or truncation.
std::string mutate(Rng &R, std::string S) {
  if (S.empty())
    return S;
  const size_t At = R.below(S.size());
  switch (R.below(5)) {
  case 0:
    S[At] = char(S[At] ^ (1u << R.below(8)));
    break;
  case 1: {
    static const uint32_t Interesting[] = {0,          1,          2,
                                           0x7F,       0xFF,       0xFFFF,
                                           0x7FFFFFFF, 0xFFFFFFFF, 16};
    uint32_t V = Interesting[R.below(sizeof(Interesting) / 4)];
    for (unsigned I = 0; I != 4 && At + I < S.size(); ++I)
      S[At + I] = char((V >> (8 * I)) & 0xFF);
    break;
  }
  case 2:
    S.erase(At, R.below(S.size() - At) + 1);
    break;
  case 3: {
    size_t Len = R.below(S.size() - At) + 1;
    S.insert(R.below(S.size() + 1), S.substr(At, Len));
    break;
  }
  case 4:
    S.resize(R.below(S.size() + 1));
    break;
  }
  return S;
}

} // namespace

int main(int argc, char **argv) {
  fuzz::DriverArgs Args = fuzz::parseDriverArgs(argc, argv);
  std::vector<std::string> Seeds = seedInputs();
  Seeds.insert(Seeds.end(), Args.Seeds.begin(), Args.Seeds.end());
  for (const std::string &S : Seeds)
    checkOneInput(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  std::printf("replayed %zu seed(s)\n", Seeds.size());

  Rng R;
  for (unsigned long I = 0; I != Args.Runs; ++I) {
    std::string S = Seeds[R.below(Seeds.size())];
    unsigned Edits = 1 + unsigned(R.below(3));
    for (unsigned E = 0; E != Edits; ++E)
      S = mutate(R, std::move(S));
    checkOneInput(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  }
  std::printf("ran %lu deterministic mutation(s): all invariants held\n",
              Args.Runs);
  return 0;
}

#endif // LALRCEX_LIBFUZZER
