//===- support/Budget.cpp --------------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"

using namespace lalrcex;

static metric::Counter tripCounter(GuardStop S) {
  switch (S) {
  case GuardStop::MemoryLimit:
    return metric::GuardTripsMemoryLimit;
  case GuardStop::Deadline:
    return metric::GuardTripsDeadline;
  case GuardStop::Cancelled:
    return metric::GuardTripsCancelled;
  case GuardStop::StepLimit:
  case GuardStop::None:
    break;
  }
  return metric::GuardTripsStepLimit;
}

const char *lalrcex::toString(GuardStop S) {
  switch (S) {
  case GuardStop::None:
    return "none";
  case GuardStop::StepLimit:
    return "step-limit";
  case GuardStop::MemoryLimit:
    return "memory-limit";
  case GuardStop::Deadline:
    return "deadline";
  case GuardStop::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

ResourceGuard::ResourceGuard(const ResourceLimits &L, CancellationToken Tok)
    : Limits(L), Token(std::move(Tok)) {
  if (Limits.WallPollPeriod == 0)
    Limits.WallPollPeriod = 1;
  if (Limits.WallClockSeconds)
    Expiry = Deadline::afterSeconds(*Limits.WallClockSeconds);
}

void ResourceGuard::reset(const ResourceLimits &L, CancellationToken Tok) {
  Limits = L;
  if (Limits.WallPollPeriod == 0)
    Limits.WallPollPeriod = 1;
  Token = std::move(Tok);
  Expiry = Limits.WallClockSeconds
               ? Deadline::afterSeconds(*Limits.WallClockSeconds)
               : Deadline();
  Steps.store(0, std::memory_order_relaxed);
  Bytes.store(0, std::memory_order_relaxed);
  PeakBytes.store(0, std::memory_order_relaxed);
  NextPoll.store(0, std::memory_order_relaxed);
  Stop.store(GuardStop::None, std::memory_order_release);
}

GuardStop ResourceGuard::trip(GuardStop S) {
  // First trip wins: only the None -> S transition succeeds, so every
  // thread observes the same (earliest) reason no matter which brake it
  // hit itself.
  GuardStop Expected = GuardStop::None;
  if (Stop.compare_exchange_strong(Expected, S, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    if (MetricsRegistry *M = Metrics.load(std::memory_order_acquire))
      M->add(tripCounter(S));
  }
  return Stop.load(std::memory_order_acquire);
}

GuardStop ResourceGuard::poll([[maybe_unused]] size_t StepsNow) {
  GuardStop S = Stop.load(std::memory_order_acquire);
  if (S != GuardStop::None)
    return S;
  if (LALRCEX_FAULT_FIRES(DeadlineAtStep, StepsNow))
    return trip(GuardStop::Deadline);
  if (LALRCEX_FAULT_FIRES(CancelAtStep, StepsNow))
    return trip(GuardStop::Cancelled);
  if (Token.cancelled())
    return trip(GuardStop::Cancelled);
  if (Expiry.expired())
    return trip(GuardStop::Deadline);
  return GuardStop::None;
}

GuardStop ResourceGuard::chargeSteps(size_t N) {
  GuardStop S = Stop.load(std::memory_order_acquire);
  if (S != GuardStop::None)
    return S;
  size_t Now = Steps.fetch_add(N, std::memory_order_relaxed) + N;
  if (Now > Limits.MaxSteps)
    return trip(GuardStop::StepLimit);
  // The wall clock and the token are polled on a step cadence so the hot
  // loop pays for a syscall / atomic load only every WallPollPeriod steps.
  // The very first charge polls too, so an already-expired deadline or a
  // pre-cancelled token trips deterministically before any work is done.
  // Under concurrent charging the advance of NextPoll races benignly: the
  // worst case is an extra poll, never a missed cadence.
  if (Now >= NextPoll.load(std::memory_order_relaxed)) {
    NextPoll.store(Now + Limits.WallPollPeriod, std::memory_order_relaxed);
    return poll(Now);
  }
  return GuardStop::None;
}

GuardStop ResourceGuard::chargeBytes(size_t Bytes_) {
  size_t Now = Bytes.fetch_add(Bytes_, std::memory_order_relaxed) + Bytes_;
  size_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (Now > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, Now,
                                          std::memory_order_relaxed)) {
  }
  GuardStop S = Stop.load(std::memory_order_acquire);
  if (S != GuardStop::None)
    return S;
  if (Now > Limits.MaxBytes)
    return trip(GuardStop::MemoryLimit);
  return GuardStop::None;
}

void ResourceGuard::releaseBytes(size_t Bytes_) {
  // Clamp at zero without underflowing past a concurrent charge.
  size_t Cur = Bytes.load(std::memory_order_relaxed);
  while (!Bytes.compare_exchange_weak(Cur,
                                      Bytes_ > Cur ? 0 : Cur - Bytes_,
                                      std::memory_order_relaxed)) {
  }
}

GuardStop ResourceGuard::stop() {
  return poll(Steps.load(std::memory_order_relaxed));
}
