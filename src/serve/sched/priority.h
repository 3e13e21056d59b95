#pragma once
// SLO-aware admission: priority classes with aging, earliest-deadline-first
// within a class, and preemption of lower classes under memory pressure.
//
// Admission key (lower wins), computed fresh at every pick:
//
//   1. effective class = class - floor(waited_ms / aging_ms), clamped >= 0
//      (aging_ms == 0 disables aging: effective class = class);
//   2. absolute deadline (submit + deadline_ms); a request without a
//      deadline is treated as carrying submit + kImpliedDeadlineMs, so EDF
//      degenerates to FIFO among deadline-less peers instead of parking
//      them behind every deadline-carrying arrival;
//   3. submit time, then id (total order -> deterministic schedules).
//
// Starvation-freedom (the "aging provably prevents starvation" claim): with
// aging_ms = A > 0, a request of class c waiting t ms has effective class
// max(0, c - floor(t/A)), which reaches 0 by t = c*A. From then on it
// competes at the top class under EDF, where its key (min(deadline,
// submit + kImpliedDeadlineMs)) is fixed while every later arrival's key is
// strictly larger (deadlines are submit-relative and the implied offset is
// finite), so only the FINITE set of requests submitted before
// submit + kImpliedDeadlineMs can be ordered ahead of it — each completes or
// times out, after which the request is admitted. No continuous flood of
// fresh high-class traffic can push it back indefinitely.
//
// Preemption: when an incoming request cannot lease KV blocks, the victim is
// the lowest-priority active sequence whose class is STRICTLY below the
// incoming request's (original) class — never a peer, so preemption cannot
// cycle within a class — youngest-submitted first, so the rows parked (or,
// when the KV tier refuses them, re-prefilled) are the fewest and older
// sequences keep their progress.

#include "serve/sched/scheduler.h"

namespace matgpt::serve::sched {

/// Implied relative deadline for requests that carry none, used only as the
/// EDF tie-break within an effective class (it does NOT time requests out).
inline constexpr double kImpliedDeadlineMs = 1000.0;

class PriorityScheduler : public Scheduler {
 public:
  /// `aging_ms`: waiting this many milliseconds promotes a request by one
  /// class (0 = no aging; starvation of the low class becomes possible).
  explicit PriorityScheduler(double aging_ms);

  const char* name() const override { return "priority"; }
  double aging_ms() const { return aging_ms_; }

  std::size_t pick_next(std::span<const QueueItem> waiting,
                        Clock::time_point now) const override;

  std::size_t pick_victim(std::span<const ActiveItem> active,
                          const QueueItem& incoming,
                          Clock::time_point now) const override;

  bool allows_bypass() const override { return true; }

  /// The aged class pick_next orders by first (exposed for tests).
  int effective_class(const QueueItem& item, Clock::time_point now) const;

 private:
  double aging_ms_;
};

}  // namespace matgpt::serve::sched
