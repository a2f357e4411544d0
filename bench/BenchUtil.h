//===- bench/BenchUtil.h - Shared benchmark helpers ------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_BENCH_BENCHUTIL_H
#define LALRCEX_BENCH_BENCHUTIL_H

#include "corpus/Corpus.h"
#include "grammar/GrammarParser.h"
#include "lr/ParseTable.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

namespace lalrcex {
namespace bench {

/// Grammar + analyses + automaton + table, built from corpus text.
struct BuiltGrammar {
  Grammar G;
  GrammarAnalysis A;
  Automaton M;
  ParseTable T;

  explicit BuiltGrammar(Grammar InG)
      : G(std::move(InG)), A(G), M(G, A), T(M) {}
};

inline std::unique_ptr<BuiltGrammar> buildEntry(const CorpusEntry &E) {
  std::string Err;
  std::optional<Grammar> G = parseGrammarText(E.Text, &Err);
  if (!G) {
    std::fprintf(stderr, "corpus grammar '%s' failed to parse: %s\n",
                 E.Name.c_str(), Err.c_str());
    std::abort();
  }
  return std::make_unique<BuiltGrammar>(std::move(*G));
}

/// Reads a time-budget scale factor: arguments like --budget=0.5 override
/// the default; used so CI runs can shrink the paper's 5 s / 120 s limits.
inline double budgetScale(int argc, char **argv, double Default = 1.0) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--budget=", 0) == 0)
      return std::atof(Arg.c_str() + 9);
  }
  if (const char *Env = std::getenv("LALRCEX_BENCH_BUDGET"))
    return std::atof(Env);
  return Default;
}

/// Best-of-N wall time of \p Fn in milliseconds; the BENCH_*.json numbers
/// use best-of-N to damp scheduler noise on shared CI machines.
template <typename F> double minWallMs(F &&Fn, int Reps = 5) {
  double Best = 1e300;
  for (int I = 0; I < Reps; ++I) {
    Stopwatch SW;
    Fn();
    Best = std::min(Best, SW.milliseconds());
  }
  return Best;
}

/// Best wall times, in milliseconds, of \p A and \p B measured as a pair
/// for a gate that compares them: \p Rounds rounds of one run each, the
/// side that goes first alternating. Timing each side as its own block
/// puts any shift in host speed between the blocks on one side only;
/// interleaved, a slow stretch costs both sides alike.
template <typename FA, typename FB>
std::pair<double, double> interleavedMinWallMs(FA &&A, FB &&B,
                                               int Rounds = 25) {
  double BestA = 1e300, BestB = 1e300;
  auto timeOne = [](auto &Fn, double &Best) {
    Stopwatch SW;
    Fn();
    Best = std::min(Best, SW.milliseconds());
  };
  for (int I = 0; I < Rounds; ++I) {
    if (I % 2 == 0) {
      timeOne(A, BestA);
      timeOne(B, BestB);
    } else {
      timeOne(B, BestB);
      timeOne(A, BestA);
    }
  }
  return {BestA, BestB};
}

} // namespace bench
} // namespace lalrcex

#endif // LALRCEX_BENCH_BENCHUTIL_H
