//===- tests/fuzz/fuzz_grammar_parser.cpp - Frontend fuzz target *- C++ -*===//
//
// Part of lalrcex.
//
// Fuzzes the bison/yacc grammar reader against its never-crash contract:
// for ANY byte sequence, parseGrammar must return (never throw, crash, or
// hang), every diagnostic must render, and a successful parse must yield a
// grammar whose analysis fixpoints complete.
//
// Two build modes share this file:
//
//   * with -DLALRCEX_LIBFUZZER (clang -fsanitize=fuzzer,address,undefined)
//     it exports LLVMFuzzerTestOneInput for coverage-guided fuzzing — the
//     CI fuzz-smoke job builds this flavor;
//   * otherwise it gets a standalone main() that replays a seed corpus and
//     then runs a deterministic mutational loop over it, so the same
//     invariants are exercised by plain gcc in the regular ctest run:
//
//       fuzz_grammar_parser [-runs N] [corpus-dir | seed-file]...
//
//===----------------------------------------------------------------------===//

#include "grammar/Analysis.h"
#include "grammar/GrammarParser.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace lalrcex;

namespace {

void check(bool Cond, const char *What) {
  if (Cond)
    return;
  std::fprintf(stderr, "fuzz invariant violated: %s\n", What);
  std::abort();
}

/// The property under test. Separated from the libFuzzer entry point so
/// the standalone driver can reuse it verbatim.
void checkOneInput(const uint8_t *Data, size_t Size) {
  std::string Text(reinterpret_cast<const char *>(Data), Size);

  GrammarParseOptions Opts;
  Opts.MaxErrors = 20;
  Opts.MaxActionDepth = 64;
  GrammarParseResult R = parseGrammar(Text, Opts);

  // A grammar comes back exactly when there were no errors.
  check(R.ok() == (R.ErrorCount == 0 && R.G.has_value()),
        "ok() must mean zero errors and an engaged grammar");
  check(R.ok() || R.firstError() != nullptr,
        "a failed parse must carry at least one error diagnostic");

  // Every diagnostic renders against the original text without reading
  // out of bounds (ASan checks the latter in the CI flavor).
  std::string Rendered = R.renderDiagnostics(Text);
  check(R.Diags.empty() == Rendered.empty(),
        "diagnostics and their rendering agree on emptiness");

  // The deprecated shim stays in sync with the diagnostics list.
  std::string ShimError;
  check(parseGrammarText(Text, &ShimError).has_value() == R.ok(),
        "shim and diagnostics API agree on success");
  check(R.ok() == ShimError.empty(),
        "shim reports an error exactly on failure");

  // Accepted inputs must survive the downstream analysis fixpoints.
  if (R.ok() && Size < 2048) {
    GrammarAnalysis A(*R.G);
    for (unsigned S = 0; S != R.G->numSymbols(); ++S)
      (void)A.isNullable(Symbol(S));
  }
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  checkOneInput(Data, Size);
  return 0;
}

#ifndef LALRCEX_LIBFUZZER

#include "FuzzDriver.h"

namespace {

using fuzz::Rng;

/// One random edit: byte flips, insertions (NUL and '%' included on
/// purpose), deletions, span duplication, truncation, or a splice of two
/// seeds. Nothing clever — the grammar-aware coverage feedback lives in
/// the libFuzzer flavor; this loop is a deterministic smoke layer.
std::string mutate(Rng &R, const std::vector<std::string> &Seeds,
                   std::string S) {
  switch (R.below(6)) {
  case 0:
    if (!S.empty())
      S[R.below(S.size())] = char(R.next());
    break;
  case 1: {
    static const char Interesting[] = {'%', '{', '}', '\'', '"', ';', '|',
                                       ':', '\0', '\n', '<', '[', '\\'};
    S.insert(R.below(S.size() + 1), 1,
             Interesting[R.below(sizeof(Interesting))]);
    break;
  }
  case 2:
    if (!S.empty()) {
      size_t At = R.below(S.size());
      S.erase(At, R.below(S.size() - At) + 1);
    }
    break;
  case 3:
    if (!S.empty()) {
      size_t At = R.below(S.size());
      size_t Len = R.below(S.size() - At) + 1;
      S.insert(R.below(S.size() + 1), S.substr(At, Len));
    }
    break;
  case 4:
    S.resize(R.below(S.size() + 1));
    break;
  case 5: {
    const std::string &Other = Seeds[R.below(Seeds.size())];
    S = S.substr(0, R.below(S.size() + 1)) +
        Other.substr(R.below(Other.size() + 1));
    break;
  }
  }
  return S;
}

} // namespace

int main(int argc, char **argv) {
  fuzz::DriverArgs Args = fuzz::parseDriverArgs(argc, argv);
  std::vector<std::string> &Seeds = Args.Seeds;
  for (const std::string &S : Seeds)
    checkOneInput(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  if (Seeds.empty())
    Seeds.push_back("%%\ns : a ;\n");
  std::printf("replayed %zu seed(s)\n", Seeds.size());

  Rng R;
  for (unsigned long I = 0; I != Args.Runs; ++I) {
    std::string S = Seeds[R.below(Seeds.size())];
    unsigned Edits = 1 + unsigned(R.below(4));
    for (unsigned E = 0; E != Edits; ++E)
      S = mutate(R, Seeds, std::move(S));
    checkOneInput(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  }
  std::printf("ran %lu deterministic mutation(s): all invariants held\n",
              Args.Runs);
  return 0;
}

#endif // !LALRCEX_LIBFUZZER
