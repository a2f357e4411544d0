//===- examples/diff_conflicts.cpp - Differential conflict harness -------===//
//
// Part of lalrcex.
//
// Cross-checks conflict reporting on real grammar files, three ways:
//
//   1. the default LALR construction (DeRemer–Pennello lookaheads)
//      against the baseline IndexSet fixpoints (Dragon 4.63, PooledSets =
//      false): the two must agree on every reported conflict — state,
//      token, kind — not just counts;
//   2. the reported counts against the grammar's own %expect/%expect-rr
//      declarations, when declared;
//   3. optionally (-canonical) the canonical LR(1) machine: its counts
//      are informational (LALR merging can only add conflicts), but a
//      conflict-free LALR table with a conflicted canonical table is a
//      construction bug and fails hard.
//
// Any divergence is reported as a structured failure. With -torture the
// inputs are expected to be garbage: the harness only requires that the
// frontend refuses them with structured diagnostics instead of crashing,
// and files that happen to parse still go through the differential check.
//
//   diff_conflicts [-torture] [-canonical] [file | directory]...
//
// Exit codes: 0 all grammars agree; 1 divergence; 2 usage;
//             3 parse failure outside -torture mode.
//
//===----------------------------------------------------------------------===//

#include "grammar/GrammarParser.h"
#include "lr/ParseTable.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace lalrcex;

namespace {

struct Counts {
  unsigned Sr = 0, Rr = 0;
};

Counts countReported(const ParseTable &T) {
  Counts C;
  for (const Conflict &Conf : T.reportedConflicts())
    (Conf.K == Conflict::ShiftReduce ? C.Sr : C.Rr) += 1;
  return C;
}

/// A conflict's identity for cross-construction comparison.
std::string conflictKey(const Conflict &C) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "state%u/tok%d/%s/red%u/oth%u", C.State,
                C.Token.id(), C.K == Conflict::ShiftReduce ? "sr" : "rr",
                C.ReduceProd, C.K == Conflict::ReduceReduce ? C.OtherProd : 0);
  return Buf;
}

std::vector<std::string> reportedKeys(const ParseTable &T) {
  std::vector<std::string> Keys;
  for (const Conflict &C : T.reportedConflicts())
    Keys.push_back(conflictKey(C));
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

} // namespace

int main(int argc, char **argv) {
  bool Torture = false, Canonical = false;
  std::vector<std::filesystem::path> Files;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-torture") {
      Torture = true;
    } else if (Arg == "-canonical") {
      Canonical = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: diff_conflicts [-torture] [-canonical] "
                   "[file | directory]...\n");
      return 2;
    } else {
      std::filesystem::path P(Arg);
      std::error_code Ec;
      if (std::filesystem::is_directory(P, Ec)) {
        std::vector<std::filesystem::path> Found;
        for (const auto &E : std::filesystem::directory_iterator(P, Ec))
          if (E.is_regular_file() && E.path().extension() == ".y")
            Found.push_back(E.path());
        std::sort(Found.begin(), Found.end());
        Files.insert(Files.end(), Found.begin(), Found.end());
      } else {
        Files.push_back(P);
      }
    }
  }
  if (Files.empty()) {
    std::fprintf(stderr, "diff_conflicts: no grammar files given\n");
    return 2;
  }

  unsigned Divergences = 0, ParseFailures = 0;
  for (const std::filesystem::path &File : Files) {
    std::string Name = File.filename().string();
    std::ifstream In(File, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "%s: cannot read\n", Name.c_str());
      ++ParseFailures;
      continue;
    }
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());

    GrammarParseResult Parsed = parseGrammar(Text);
    if (!Parsed.ok()) {
      if (Torture) {
        // Expected: the contract is a structured refusal, not a parse.
        const Diagnostic *First = Parsed.firstError();
        std::printf("%-28s rejected with %zu error(s): %s\n", Name.c_str(),
                    Parsed.ErrorCount,
                    First ? First->header().c_str() : "(no diagnostic?)");
        if (!First) {
          std::fprintf(stderr, "%s: DIVERGENCE: failed parse carries no "
                               "error diagnostic\n",
                       Name.c_str());
          ++Divergences;
        }
      } else {
        std::fprintf(stderr, "%s: does not parse:\n%s", Name.c_str(),
                     Parsed.renderDiagnostics(Text).c_str());
        ++ParseFailures;
      }
      continue;
    }

    const Grammar &G = *Parsed.G;
    GrammarAnalysis A(G);

    AutomatonOptions Pooled;
    Automaton MPooled(G, A, Pooled);
    ParseTable TPooled(MPooled);
    Counts CP = countReported(TPooled);

    AutomatonOptions Baseline;
    Baseline.PooledSets = false;
    Automaton MBase(G, A, Baseline);
    ParseTable TBase(MBase);

    // 1. Pooled vs baseline: identical conflict sets, not just counts.
    if (reportedKeys(TPooled) != reportedKeys(TBase)) {
      Counts CB = countReported(TBase);
      std::fprintf(stderr,
                   "%s: DIVERGENCE: pooled construction reports %u/%u "
                   "(s/r, r/r) but baseline reports %u/%u or differs in "
                   "conflict identity\n",
                   Name.c_str(), CP.Sr, CP.Rr, CB.Sr, CB.Rr);
      ++Divergences;
    }

    // 2. Declared expectations, when the grammar carries them.
    std::string Mismatch = TPooled.checkExpectations();
    if (!Mismatch.empty()) {
      std::fprintf(stderr, "%s: DIVERGENCE: %s\n", Name.c_str(),
                   Mismatch.c_str());
      ++Divergences;
    }

    std::printf("%-28s %4u prods %5u states  %u s/r %u r/r", Name.c_str(),
                G.numProductions(), MPooled.numStates(), CP.Sr, CP.Rr);
    if (G.expectedShiftReduce() >= 0 || G.expectedReduceReduce() >= 0)
      std::printf("  (declared %d/%d)", G.expectedShiftReduce(),
                  G.expectedReduceReduce());

    // 3. Canonical LR(1), informational plus the subset sanity check.
    if (Canonical) {
      AutomatonOptions CanonOpts;
      CanonOpts.Kind = AutomatonKind::Canonical;
      Automaton MCanon(G, A, CanonOpts);
      ParseTable TCanon(MCanon);
      Counts CC = countReported(TCanon);
      std::printf("  [canonical: %u states, %u s/r %u r/r]",
                  MCanon.numStates(), CC.Sr, CC.Rr);
      if (CP.Sr + CP.Rr == 0 && CC.Sr + CC.Rr != 0) {
        std::printf("\n");
        std::fprintf(stderr,
                     "%s: DIVERGENCE: LALR table is conflict-free but "
                     "canonical LR(1) reports %u/%u\n",
                     Name.c_str(), CC.Sr, CC.Rr);
        ++Divergences;
      }
    }
    std::printf("\n");
  }

  if (Divergences)
    std::fprintf(stderr, "diff_conflicts: %u divergence(s)\n", Divergences);
  if (ParseFailures)
    std::fprintf(stderr, "diff_conflicts: %u parse failure(s)\n",
                 ParseFailures);
  if (Divergences)
    return 1;
  return ParseFailures ? 3 : 0;
}
