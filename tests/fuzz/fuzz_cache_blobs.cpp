//===- tests/fuzz/fuzz_cache_blobs.cpp - Cache blob fuzz target -*- C++ -*-===//
//
// Part of lalrcex.
//
// Fuzzes the two cache blob readers against the contract in
// cache/AnalysisCache.h: blobs are untrusted input, so for ANY byte
// sequence a reader must return a probe (never throw, crash, or hang),
// and a Hit must be usable downstream — every restored report renders,
// and a restored touched set is strictly ascending.
//
// Input layout: the first byte selects the reader (low bit:
// deserializeReports, deserializeConflictReport; for conflict reports the
// remaining bits pick which figure1 conflict the blob is probed for). The
// rest is the blob.
// Every read happens against figure1. Before each read the harness
// re-seals the trailing 16-byte checksum over the bytes before it, so
// mutations reach the field decoders instead of stopping at the checksum.
//
// Two build modes share this file, as with fuzz_grammar_parser.cpp:
//
//   * with -DLALRCEX_LIBFUZZER it exports LLVMFuzzerTestOneInput for
//     coverage-guided fuzzing; when LALRCEX_FUZZ_SEED_DIR names a
//     directory, LLVMFuzzerInitialize first writes figure1's real blobs
//     into it so the corpus starts past the header checks;
//   * otherwise it gets a standalone main() that seeds from figure1's real
//     blobs, serialized in-process, replays any extra seed files, and then
//     runs a deterministic mutational loop:
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

enum Reader : unsigned {
  ReadReports,
  ReadConflictReport,
};

/// Deterministic budgets, so the seeded report blobs are repeatable.
FinderOptions fuzzOptions() {
  FinderOptions Opts;
  Opts.ConflictTimeLimitSeconds = 0;
  Opts.CumulativeTimeLimitSeconds = 0;
  Opts.MaxConfigurations = 20'000;
  return Opts;
}

/// Everything the readers are probed against, built once.
struct Figure1 {
  Grammar G;
  GrammarAnalysis A;
  Automaton M;
  ParseTable T;
  StateItemGraph Graph;
  FinderOptions Opts;
  CounterexampleFinder Finder;
  std::vector<Conflict> Conflicts;
  std::vector<Fingerprint128> Keys; ///< `.crep` key per conflict

  Figure1()
      : G(loadCorpusGrammar("figure1")), A(G), M(G, A), T(M), Graph(M),
        Opts(fuzzOptions()), Finder(T, Opts),
        Conflicts(T.reportedConflicts()) {
    ConflictKeyContext Ctx(M, Opts);
    for (const Conflict &C : Conflicts)
      Keys.push_back(Ctx.conflictFingerprint(C));
  }
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
  if (Size == 0)
    return;
  const Figure1 &F = figure1();
  const unsigned Selector = Data[0];
  std::string Blob(reinterpret_cast<const char *>(Data + 1), Size - 1);
  reseal(Blob);

  switch (Selector & 1) {
  case ReadReports: {
    std::vector<ConflictReport> Out;
    CacheProbe P =
        deserializeReports(Blob, F.G, AutomatonKind::Lalr1, F.Opts, Out);
    if (P.hit())
      for (const ConflictReport &R : Out)
        (void)F.Finder.render(R);
    break;
  }
  case ReadConflictReport: {
    size_t K = (Selector >> 1) % F.Conflicts.size();
    ConflictReport Out;
    std::vector<uint32_t> Touched;
    CacheProbe P = deserializeConflictReport(
        Blob, F.Keys[K], F.G, F.Conflicts[K], Out, FormatVersion, &Touched);
    if (!P.hit())
      break;
    (void)F.Finder.render(Out);
    for (size_t I = 1; I < Touched.size(); ++I)
      check(Touched[I - 1] < Touched[I], "touched set strictly ascending");
    break;
  }
  }
}

/// figure1's real blobs, one input per reader (one per conflict for
/// `.crep` blobs), each prefixed with its selector byte.
std::vector<std::string> seedInputs() {
  const Figure1 &F = figure1();
  std::vector<std::string> Seeds;
  auto add = [&Seeds](unsigned Selector, const std::string &Blob) {
    Seeds.push_back(std::string(1, char(Selector)) + Blob);
  };
  CounterexampleFinder Finder(F.T, F.Opts);
  std::vector<ConflictReport> Reports;
  for (size_t K = 0; K != F.Conflicts.size(); ++K) {
    GraphTouchRecorder Rec(F.Graph.numNodes());
    {
      ScopedGraphTouchRecorder Scope(&Rec);
      Reports.push_back(Finder.examine(F.Conflicts[K]));
    }
    std::vector<uint32_t> Touched = Rec.sortedNodes();
    add(ReadConflictReport | unsigned(K << 1),
        serializeConflictReport(F.Keys[K], Reports.back(), FormatVersion,
                                &Touched));
  }
  add(ReadReports,
      serializeReports(F.G, AutomatonKind::Lalr1, F.Opts, Reports));
  return Seeds;
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

/// One random edit of the blob bytes (never the selector byte): byte
/// flips, boundary values written as little-endian u32s (the readers'
/// counts and ids), deletions, span duplication, or truncation.
std::string mutate(Rng &R, std::string S) {
  if (S.size() < 2)
    return S;
  const size_t Body = S.size() - 1;
  const size_t At = 1 + R.below(Body);
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
    S.insert(1 + R.below(Body + 1), S.substr(At, Len));
    break;
  }
  case 4:
    S.resize(1 + R.below(Body + 1));
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
