#pragma once
// Scheduling policy for the serving engine: who is admitted next, and who is
// preempted when a more urgent request cannot get KV memory.
//
// The engine owns the MECHANISM (queues, leases, chunked prefill, and the
// preempted rows it parks in the KV tier); a Scheduler owns only the
// POLICY decisions, taken fresh each step():
//
//   * pick_next    — which waiting request to admit next;
//   * pick_victim  — which active sequence to preempt so an incoming
//                    request can lease KV blocks (kNone = never preempt);
//   * allows_bypass — whether admission may set a request that cannot get
//                    memory aside and try the next pick this step, or must
//                    stop at the head (strict FCFS keeps head-of-line order).
//
// Policies see immutable snapshots (QueueItem / ActiveItem), so a scheduler
// cannot corrupt engine state and a policy is testable without a model.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>

#include "serve/request.h"

namespace matgpt::serve::sched {

using Clock = std::chrono::steady_clock;

/// Selects the Scheduler implementation an engine builds.
enum class Policy {
  /// Strict arrival order, no preemption — the pre-scheduler behaviour and
  /// the baseline bench_scheduler measures against.
  kFcfs,
  /// (aged class, EDF, arrival) admission with preemption under memory
  /// pressure. See PriorityScheduler.
  kPriority,
};

inline const char* policy_name(Policy p) {
  return p == Policy::kFcfs ? "fcfs" : "priority";
}

/// Scheduler-visible snapshot of one waiting request.
struct QueueItem {
  std::uint64_t id = 0;
  Priority priority = Priority::kNormal;
  Clock::time_point submitted;
  /// Absolute deadline (submit + Request::deadline_ms);
  /// Clock::time_point::max() when the request carries none.
  Clock::time_point deadline = Clock::time_point::max();
  /// True for a preempted-requeued request (it holds generated tokens and,
  /// unless the tier refused them, KV rows parked in the tier, so finishing
  /// it releases more than admitting a fresh one).
  bool resuming = false;
};

/// Scheduler-visible snapshot of one active (admitted) sequence.
struct ActiveItem {
  std::uint64_t id = 0;
  Priority priority = Priority::kNormal;
  Clock::time_point submitted;
  /// Tokens generated so far (0 while still prefilling).
  std::int64_t emitted = 0;
};

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const char* name() const = 0;

  /// Index into `waiting` of the request to admit next, or kNone when the
  /// queue is empty (or the policy wants to admit nothing).
  virtual std::size_t pick_next(std::span<const QueueItem> waiting,
                                Clock::time_point now) const = 0;

  /// Index into `active` of the sequence to preempt so `incoming` can lease
  /// KV, or kNone to refuse. Called repeatedly until the lease succeeds or
  /// the policy refuses; each call sees the post-preemption active set.
  virtual std::size_t pick_victim(std::span<const ActiveItem> active,
                                  const QueueItem& incoming,
                                  Clock::time_point now) const = 0;

  /// Whether admission may skip a pick that cannot get memory and try the
  /// next-best one in the same step (false = strict head-of-line).
  virtual bool allows_bypass() const = 0;
};

/// Factory the engine uses: aging_ms is the PriorityScheduler's per-class
/// aging quantum (ignored by FCFS).
std::unique_ptr<Scheduler> make_scheduler(Policy policy, double aging_ms);

}  // namespace matgpt::serve::sched
