//===- support/Diagnostics.cpp --------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include <algorithm>
#include <cctype>

using namespace lalrcex;

const char *lalrcex::diagSeverityName(DiagSeverity S) {
  switch (S) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "error";
}

std::string Diagnostic::header() const {
  std::string Out = "line " + std::to_string(Line);
  // Appended piece by piece: GCC 12 at -O3 flags the inlined copy of a
  // `":" + std::to_string(...)` temporary with a false -Wrestrict.
  if (Column > 0) {
    Out += ':';
    Out += std::to_string(Column);
  }
  Out += ": ";
  Out += diagSeverityName(Severity);
  Out += ": ";
  Out += Message;
  if (!Code.empty()) {
    Out += " [";
    Out += Code;
    Out += ']';
  }
  return Out;
}

DiagnosticEngine::DiagnosticEngine(std::string_view Source, size_t ErrorCap)
    : Source(Source), ErrorCap(ErrorCap == 0 ? 1 : ErrorCap) {}

void DiagnosticEngine::report(DiagSeverity Severity, const char *Code,
                              unsigned Line, unsigned Column,
                              std::string Message) {
  if (Severity == DiagSeverity::Error) {
    if (Errors >= ErrorCap) {
      if (!CapNoted) {
        CapNoted = true;
        Diags.push_back(Diagnostic{DiagSeverity::Note, Diag::TooManyErrors,
                                   Line, Column,
                                   "too many errors (cap " +
                                       std::to_string(ErrorCap) +
                                       "); further errors suppressed"});
      }
      ++Errors; // still counted, just not stored
      return;
    }
    ++Errors;
  } else {
    // Warnings and notes ride the same cap, scaled, so a pathological
    // input cannot grow the list without bound through warnings alone.
    if (Diags.size() >= ErrorCap * 4)
      return;
    if (Severity == DiagSeverity::Warning)
      ++Warnings;
  }
  Diags.push_back(
      Diagnostic{Severity, Code ? Code : "", Line, Column, std::move(Message)});
}

namespace {

/// Replaces control bytes so a snippet is always printable on one line.
char sanitizeByte(char C) {
  unsigned char U = static_cast<unsigned char>(C);
  if (U == '\t')
    return ' ';
  if (U < 0x20 || U == 0x7F)
    return '?';
  return C;
}

/// Cuts line \p Line (1-based) out of \p Source, tolerating \r\n and a
/// missing trailing newline. Returns false when the line does not exist.
bool extractLine(std::string_view Source, unsigned Line,
                 std::string_view &Out) {
  if (Line == 0)
    return false;
  size_t Start = 0;
  for (unsigned L = 1; L < Line; ++L) {
    size_t Nl = Source.find('\n', Start);
    if (Nl == std::string_view::npos)
      return false;
    Start = Nl + 1;
  }
  size_t End = Source.find('\n', Start);
  if (End == std::string_view::npos)
    End = Source.size();
  while (End > Start && Source[End - 1] == '\r')
    --End;
  Out = Source.substr(Start, End - Start);
  return true;
}

} // namespace

std::string lalrcex::renderDiagnostic(const Diagnostic &D,
                                      std::string_view Source) {
  std::string Out = D.header();
  std::string_view LineText;
  if (!extractLine(Source, D.Line, LineText))
    return Out + "\n";
  // Window the snippet around the caret so multi-megabyte lines render
  // in bounded space.
  constexpr size_t MaxWidth = 80;
  size_t Col = D.Column > 0 ? D.Column - 1 : 0;
  if (Col > LineText.size())
    Col = LineText.size();
  size_t WindowStart = 0;
  bool ClippedLeft = false, ClippedRight = false;
  if (LineText.size() > MaxWidth) {
    if (Col > MaxWidth / 2) {
      WindowStart = Col - MaxWidth / 2;
      ClippedLeft = true;
    }
    if (WindowStart + MaxWidth < LineText.size())
      ClippedRight = true;
    LineText = LineText.substr(WindowStart, MaxWidth);
  }
  std::string Snippet;
  Snippet.reserve(LineText.size() + 8);
  if (ClippedLeft)
    Snippet += "...";
  for (char C : LineText)
    Snippet += sanitizeByte(C);
  if (ClippedRight)
    Snippet += "...";
  Out += "\n  " + Snippet + "\n";
  if (D.Column > 0) {
    size_t CaretPos = (Col - WindowStart) + (ClippedLeft ? 3 : 0);
    Out += "  " + std::string(CaretPos, ' ') + "^\n";
  }
  return Out;
}

std::string lalrcex::renderDiagnostics(const std::vector<Diagnostic> &Diags,
                                       std::string_view Source) {
  std::string Out;
  for (const Diagnostic &D : Diags)
    Out += renderDiagnostic(D, Source);
  return Out;
}

std::string DiagnosticEngine::render(const Diagnostic &D) const {
  return renderDiagnostic(D, Source);
}

std::string DiagnosticEngine::renderAll() const {
  return renderDiagnostics(Diags, Source);
}
