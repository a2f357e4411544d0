//===- support/Stopwatch.h - Wall-clock timing helpers ---------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotonic stopwatch and deadline types used to enforce the paper's
/// per-conflict (5 s) and cumulative (2 min) search budgets (paper §6).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_SUPPORT_STOPWATCH_H
#define LALRCEX_SUPPORT_STOPWATCH_H

#include <chrono>

namespace lalrcex {

/// Measures elapsed wall-clock time from construction (or last restart).
class Stopwatch {
public:
  Stopwatch() : Start(Clock::now()) {}

  void restart() { Start = Clock::now(); }

  /// Elapsed time in seconds.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Elapsed time in milliseconds.
  double milliseconds() const { return seconds() * 1e3; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// A point in time after which work should be abandoned. A
/// default-constructed Deadline never expires.
class Deadline {
public:
  Deadline() = default;

  /// Creates a deadline \p Seconds from now. Non-positive budgets (and
  /// NaN) create an already-expired deadline; a budget beyond the clock's
  /// range, +infinity included, never expires.
  static Deadline afterSeconds(double Seconds) {
    Deadline D;
    Clock::time_point Now = Clock::now();
    if (!(Seconds > 0)) {
      D.Armed = true;
      D.Expiry = Now;
      return D;
    }
    // Compared in seconds, with a second to spare for rounding, so only
    // budgets that fit the clock reach the integer conversion.
    double Room =
        std::chrono::duration<double>(Clock::time_point::max() - Now).count();
    if (Seconds >= Room - 1)
      return D;
    D.Armed = true;
    D.Expiry = Now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
    return D;
  }

  /// A deadline that never expires.
  static Deadline unlimited() { return Deadline(); }

  bool expired() const { return Armed && Clock::now() >= Expiry; }

  /// Seconds remaining; a large value when unlimited.
  double remainingSeconds() const {
    if (!Armed)
      return 1e18;
    return std::chrono::duration<double>(Expiry - Clock::now()).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  bool Armed = false;
  Clock::time_point Expiry;
};

} // namespace lalrcex

#endif // LALRCEX_SUPPORT_STOPWATCH_H
