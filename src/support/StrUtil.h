//===- support/StrUtil.h - Small string helpers ----------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_SUPPORT_STRUTIL_H
#define LALRCEX_SUPPORT_STRUTIL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lalrcex {

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Formats \p Seconds with three decimal places (e.g. "0.072").
std::string formatSeconds(double Seconds);

/// Pads \p S on the left with spaces to at least \p Width characters.
std::string padLeft(const std::string &S, size_t Width);

/// Pads \p S on the right with spaces to at least \p Width characters.
std::string padRight(const std::string &S, size_t Width);

/// Strictly parses \p S as a non-negative decimal integer no larger than
/// \p Max. Returns nullopt for an empty string, any non-digit character
/// (including signs and whitespace), or a value out of range. Use this
/// instead of std::atoi for every numeric CLI argument and directive:
/// atoi silently maps garbage to 0 and wraps negatives through unsigned.
std::optional<uint64_t> parseUnsigned(const std::string &S,
                                      uint64_t Max = UINT64_MAX);

/// Strictly parses \p S as a finite floating-point number, in the syntax
/// std::strtod reads. Returns nullopt for an empty string, leading
/// whitespace, trailing characters, an infinity or NaN, or a value out of
/// range; std::atof would map garbage to 0.
std::optional<double> parseFiniteDouble(const std::string &S);

} // namespace lalrcex

#endif // LALRCEX_SUPPORT_STRUTIL_H
