#pragma once
// Fork-join thread pool: parallel_for splits a range over the calling thread
// and the workers.
//
// parallel_for publishes one job at a time. The caller claims chunks of it
// from the job's atomic ticket exactly as the workers do, so a pool of W
// workers runs a range on W + 1 threads and the caller never idles waiting.
// Idle workers block on one condition variable until a new job's ticket is
// published or the pool stops.
//
// The inline rule: only one job is in flight per pool. A nested call (from
// inside a chunk) or a second caller while a job runs executes its whole
// range inline on its own thread, so concurrent callers (two engines, an
// HTTP thread beside the engine's worker) never wait on each other's
// chunks. A pool with zero workers runs everything inline, so the tensor
// kernels degrade to a serial loop on one core.
//
// The compute kernels run on ThreadPool::current(): global(), unless the
// calling thread holds a ScopedThreadPool. Tests and benches use that scope
// to run one computation at several pool sizes; the kernels split work so
// that the pool size never changes an output byte.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace matgpt {

class ThreadPool {
 public:
  /// `workers == 0` means every parallel_for runs inline on its caller.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Run fn(lo, hi) over contiguous chunks covering [begin, end), each index
  /// exactly once, on the caller and the workers (or all inline, see the
  /// inline rule above). A range of at most (workers + 1) * 4 indices gets
  /// one chunk per index. Blocks until every chunk completes. Exceptions
  /// from fn propagate to the caller (the first one captured wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool of default_worker_count() workers.
  static ThreadPool& global();

  /// The pool the calling thread's kernels run on: the innermost live
  /// ScopedThreadPool of this thread, else (for a pool's own workers) that
  /// pool, else global().
  static ThreadPool& current();

 private:
  void worker_loop();
  /// Claims and runs chunks of the published job until none is left;
  /// returns the id of the job it last looked at.
  std::uint64_t run_chunks();

  // The job in flight. The caller holding busy_ writes these before it
  // publishes the job's ticket; another thread reads them only after a
  // successful claim, which the caller cannot outlive (it waits on done_).
  const std::function<void(std::size_t, std::size_t)>* job_fn_ = nullptr;
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::size_t job_step_ = 0;
  std::uint64_t job_id_ = 0;
  std::mutex error_mutex_;
  std::exception_ptr job_error_;  // guarded by error_mutex_

  std::atomic<bool> busy_{false};
  // Job id, chunk count and next unclaimed chunk, packed so one fetch_add
  // both claims a chunk and names the job it belongs to.
  alignas(64) std::atomic<std::uint64_t> ticket_{0};
  alignas(64) std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> sleepers_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mutex_
  std::vector<std::thread> threads_;  // last: the workers use all of the above
};

/// Workers for a pool that uses every CPU the calling thread may run on:
/// the CPUs in its affinity mask (hardware_concurrency() where that mask
/// cannot be read), minus one for the caller, never below zero.
std::size_t default_worker_count();

/// Runs the calling thread's kernels on a pool of `workers` workers of its
/// own while in scope: ThreadPool::current() returns it, on this thread
/// only. The previous override comes back when the scope ends.
class ScopedThreadPool {
 public:
  explicit ScopedThreadPool(std::size_t workers);
  ~ScopedThreadPool();

  ScopedThreadPool(const ScopedThreadPool&) = delete;
  ScopedThreadPool& operator=(const ScopedThreadPool&) = delete;

 private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

}  // namespace matgpt
