// Unit tests for the fork-join thread pool: range coverage, exceptions,
// concurrent and nested callers, per-thread scoped pools, and the default
// pool size under a CPU affinity mask.

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.h"
#include "parallel/thread_pool.h"

namespace matgpt {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw Error("boom");
                        }),
      Error);
}

// ---- fork-join parallel_for ------------------------------------------------

TEST(ThreadPool, ConcurrentCallersCoverEveryRangeExactlyOnce) {
  // Four callers race for one pool with 10^4 tiny jobs each: one at a time
  // gets the workers, the rest run inline. Every index runs exactly once,
  // and no job hangs on a lost wake-up.
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kJobs = 10000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<int> hits(64);
      for (int job = 0; job < kJobs; ++job) {
        const std::size_t n = 1 + static_cast<std::size_t>(job + c) % 40;
        std::fill(hits.begin(), hits.end(), 0);
        pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
        });
        for (std::size_t i = 0; i < hits.size(); ++i) {
          if (hits[i] != (i < n ? 1 : 0)) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, NestedCallRunsInlineOnTheCallingThread) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 8);
  std::atomic<int> inner_calls{0};
  std::atomic<int> off_thread{0};
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer) {
      const auto self = std::this_thread::get_id();
      pool.parallel_for(0, 8, [&](std::size_t ilo, std::size_t ihi) {
        inner_calls.fetch_add(1);
        if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
        for (std::size_t i = ilo; i < ihi; ++i) {
          hits[outer * 8 + i].fetch_add(1);
        }
      });
    }
  });
  EXPECT_EQ(inner_calls.load(), 8);  // one whole-range call per outer index
  EXPECT_EQ(off_thread.load(), 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SecondCallerWhileAJobRunsRunsInline) {
  ThreadPool pool(3);
  std::atomic<bool> job_running{false};
  std::atomic<bool> second_done{false};
  int second_calls = 0;
  std::thread::id second_ran_on;
  std::thread second([&] {
    while (!job_running.load()) std::this_thread::yield();
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
      ++second_calls;
      second_ran_on = std::this_thread::get_id();
      EXPECT_EQ(lo, 0u);
      EXPECT_EQ(hi, 100u);
    });
    second_done.store(true);
  });
  // The first job cannot finish until the second caller has returned, so
  // the second call necessarily lands while this job is in flight.
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t) {
    job_running.store(true);
    while (!second_done.load()) std::this_thread::yield();
  });
  const auto second_id = second.get_id();
  second.join();
  EXPECT_EQ(second_calls, 1);
  EXPECT_EQ(second_ran_on, second_id);
}

// Runs parallel_for(0, 4) on three workers, one chunk per index, and holds
// every chunk until both the caller and some worker are inside one, so both
// shares exist. Then throws from the caller's share or from a worker's.
void expect_share_exception_propagates(bool from_caller) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_in{false};
  std::atomic<bool> worker_in{false};
  std::atomic<int> ran{0};
  // Three workers hold at most three of the four chunks, so the caller
  // always gets one and this wait cannot deadlock.
  const auto share = [&](std::size_t lo, std::size_t hi) {
    const bool on_caller = std::this_thread::get_id() == caller;
    (on_caller ? caller_in : worker_in).store(true);
    while (!caller_in.load() || !worker_in.load()) std::this_thread::yield();
    ran.fetch_add(static_cast<int>(hi - lo));
    if (on_caller == from_caller) throw Error("share failed");
  };
  EXPECT_THROW(pool.parallel_for(0, 4, share), Error);
  EXPECT_EQ(ran.load(), 4);  // the other chunks still ran
  // The pool stays usable after a failed job.
  std::atomic<int> after{0};
  pool.parallel_for(0, 16, [&](std::size_t lo, std::size_t hi) {
    after.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, ExceptionFromCallersSharePropagates) {
  expect_share_exception_propagates(/*from_caller=*/true);
}

TEST(ThreadPool, ExceptionFromWorkersSharePropagates) {
  expect_share_exception_propagates(/*from_caller=*/false);
}

TEST(ThreadPool, ZeroWorkersRunsTheWholeRangeInline) {
  ThreadPool pool(0);
  int calls = 0;
  std::thread::id ran_on;
  pool.parallel_for(3, 103, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    ran_on = std::this_thread::get_id();
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 103u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, DestructionRightAfterAJobJoinsCleanly) {
  // Each pool dies right after a job, while its workers may still be
  // waking for it; every other round publishes a second job first, which
  // must still cover its range.
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    const auto add = [&](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<int>(hi - lo));
    };
    pool.parallel_for(0, 16, add);
    EXPECT_EQ(sum.load(), 16);
    if (round % 2 == 0) {
      pool.parallel_for(0, 5, add);
      EXPECT_EQ(sum.load(), 21);
    }
  }
}

TEST(ThreadPool, DefaultWorkerCountFollowsTheCpuMask) {
  // Confining this thread to one CPU leaves no core for a worker; the
  // mask is restored before any assertion can return early.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t confined = default_worker_count();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(confined, 0u);
  const auto cpus = static_cast<std::size_t>(CPU_COUNT(&saved));
  EXPECT_EQ(default_worker_count(), cpus - 1);
  EXPECT_EQ(ThreadPool::global().worker_count(), cpus - 1);
}

TEST(ThreadPool, ScopedPoolIsCurrentOnItsThreadOnly) {
  // Scopes nest and unwind, other threads keep global(), and a chunk on a
  // scoped pool's worker sees that pool, so a nested call stays on it.
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
  {
    const ScopedThreadPool outer(2);
    ThreadPool* outer_pool = &ThreadPool::current();
    EXPECT_NE(outer_pool, &ThreadPool::global());
    EXPECT_EQ(outer_pool->worker_count(), 2u);
    {
      const ScopedThreadPool inner(0);
      EXPECT_EQ(ThreadPool::current().worker_count(), 0u);
    }
    EXPECT_EQ(&ThreadPool::current(), outer_pool);
    ThreadPool* elsewhere = nullptr;
    std::thread([&] { elsewhere = &ThreadPool::current(); }).join();
    EXPECT_EQ(elsewhere, &ThreadPool::global());
    std::atomic<int> off_pool{0};
    outer_pool->parallel_for(0, 12, [&](std::size_t, std::size_t) {
      if (&ThreadPool::current() != outer_pool) off_pool.fetch_add(1);
    });
    EXPECT_EQ(off_pool.load(), 0);
  }
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
}

}  // namespace
}  // namespace matgpt
