//===- support/StrUtil.cpp ------------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "support/StrUtil.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace lalrcex;

std::string lalrcex::join(const std::vector<std::string> &Parts,
                          const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string lalrcex::formatSeconds(double Seconds) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Seconds);
  return Buf;
}

std::string lalrcex::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string lalrcex::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::optional<uint64_t> lalrcex::parseUnsigned(const std::string &S,
                                               uint64_t Max) {
  if (S.empty())
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return std::nullopt;
    unsigned Digit = unsigned(C - '0');
    if (Value > (UINT64_MAX - Digit) / 10)
      return std::nullopt;
    Value = Value * 10 + Digit;
  }
  if (Value > Max)
    return std::nullopt;
  return Value;
}

std::optional<double> lalrcex::parseFiniteDouble(const std::string &S) {
  if (S.empty() || std::isspace(static_cast<unsigned char>(S[0])))
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  double Value = std::strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size() || errno == ERANGE || !std::isfinite(Value))
    return std::nullopt;
  return Value;
}
