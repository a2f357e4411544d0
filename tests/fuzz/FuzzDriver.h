//===- tests/fuzz/FuzzDriver.h - Standalone fuzz driver parts --*- C++ -*-===//
//
// Part of lalrcex.
//
// What the standalone (non-libFuzzer) flavors of the fuzz targets share:
// a platform-independent RNG, so every run replays the same mutation
// sequence, and the command line
//
//   <target> [-runs N] [corpus-dir | seed-file]...
//
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_TESTS_FUZZ_FUZZDRIVER_H
#define LALRCEX_TESTS_FUZZ_FUZZDRIVER_H

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace lalrcex {
namespace fuzz {

/// xorshift64* — deterministic across platforms; a driver must produce
/// the same mutation sequence on every run so ctest failures reproduce.
struct Rng {
  uint64_t S = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
  size_t below(size_t N) { return N ? size_t(next() % N) : 0; }
};

/// The parsed command line: the mutation count and the contents of every
/// seed file, named directly or found in a named directory.
struct DriverArgs {
  unsigned long Runs = 5000;
  std::vector<std::string> Seeds;
};

inline DriverArgs parseDriverArgs(int argc, char **argv) {
  DriverArgs Args;
  std::vector<std::filesystem::path> Inputs;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "-runs") == 0 && I + 1 < argc) {
      Args.Runs = std::strtoul(argv[++I], nullptr, 10);
      continue;
    }
    std::filesystem::path P(argv[I]);
    std::error_code Ec;
    if (std::filesystem::is_directory(P, Ec)) {
      std::vector<std::filesystem::path> Found;
      for (const auto &E : std::filesystem::directory_iterator(P, Ec))
        if (E.is_regular_file())
          Found.push_back(E.path());
      std::sort(Found.begin(), Found.end()); // directory order is not stable
      Inputs.insert(Inputs.end(), Found.begin(), Found.end());
    } else {
      Inputs.push_back(P);
    }
  }
  for (const std::filesystem::path &P : Inputs) {
    std::ifstream In(P, std::ios::binary);
    Args.Seeds.emplace_back(std::istreambuf_iterator<char>(In),
                            std::istreambuf_iterator<char>());
  }
  return Args;
}

} // namespace fuzz
} // namespace lalrcex

#endif // LALRCEX_TESTS_FUZZ_FUZZDRIVER_H
