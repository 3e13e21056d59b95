#include "parallel/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace matgpt {

namespace {

// Chunks per thread in a parallel_for, so uneven chunks still balance.
constexpr std::size_t kChunksPerThread = 4;
// Waits for in-flight chunks that last longer than this yield the core.
constexpr int kCallerSpinsBeforeYield = 4096;

// Ticket layout: [63..40] job id, [39..20] chunk count, [19..0] next chunk.
// A claim that finds no chunk left still increments the index, at most
// once per thread per job, so the index field never carries into the count
// while jobs stay under kMaxChunks.
constexpr unsigned kIndexBits = 20;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;
constexpr unsigned kIdShift = 2 * kIndexBits;
constexpr std::uint64_t kIdMask = (std::uint64_t{1} << (64 - kIdShift)) - 1;
constexpr std::size_t kMaxChunks = std::size_t{1} << 16;

std::uint64_t ticket_job(std::uint64_t t) { return t >> kIdShift; }

// ThreadPool::current()'s override for this thread: the innermost live
// ScopedThreadPool, or for a worker its own pool, so a nested call from a
// chunk stays on the pool that ran it.
thread_local ThreadPool* tls_current = nullptr;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(
      {n, (threads_.size() + 1) * kChunksPerThread, kMaxChunks});
  bool idle = false;
  if (threads_.empty() || chunks <= 1 ||
      !busy_.compare_exchange_strong(idle, true, std::memory_order_acquire)) {
    fn(begin, end);
    return;
  }
  job_fn_ = &fn;
  job_begin_ = begin;
  job_end_ = end;
  job_step_ = (n + chunks - 1) / chunks;
  const std::size_t count = (n + job_step_ - 1) / job_step_;
  job_id_ = (job_id_ + 1) & kIdMask;
  done_.store(0, std::memory_order_relaxed);
  // Publishing and the sleeper check are both seq_cst: a worker that
  // registers as a sleeper after this load re-reads the ticket and sees the
  // job; one registered before it is woken here.
  ticket_.store((job_id_ << kIdShift) | (std::uint64_t{count} << kIndexBits));
  if (sleepers_.load() > 0) {
    { std::lock_guard lock(mutex_); }
    cv_.notify_all();
  }
  run_chunks();
  for (int spins = 0; done_.load(std::memory_order_acquire) < count;) {
    if (++spins < kCallerSpinsBeforeYield) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  std::exception_ptr error;
  {
    std::lock_guard lock(error_mutex_);
    error = std::exchange(job_error_, nullptr);
  }
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

std::uint64_t ThreadPool::run_chunks() {
  for (;;) {
    const std::uint64_t t = ticket_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t index = t & kIndexMask;
    if (index >= ((t >> kIndexBits) & kIndexMask)) return ticket_job(t);
    const std::size_t lo =
        job_begin_ + static_cast<std::size_t>(index) * job_step_;
    const std::size_t hi = std::min(lo + job_step_, job_end_);
    try {
      (*job_fn_)(lo, hi);
    } catch (...) {
      std::lock_guard lock(error_mutex_);
      if (!job_error_) job_error_ = std::current_exception();
    }
    done_.fetch_add(1, std::memory_order_release);
  }
}

std::size_t default_worker_count() {
  std::size_t cpus = std::thread::hardware_concurrency();
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    cpus = static_cast<std::size_t>(CPU_COUNT(&mask));
  }
  return cpus > 1 ? cpus - 1 : 0;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_worker_count());
  return pool;
}

ThreadPool& ThreadPool::current() {
  return tls_current != nullptr ? *tls_current : global();
}

ScopedThreadPool::ScopedThreadPool(std::size_t workers)
    : pool_(workers), previous_(std::exchange(tls_current, &pool_)) {}

ScopedThreadPool::~ScopedThreadPool() { tls_current = previous_; }

void ThreadPool::worker_loop() {
  tls_current = this;
  std::uint64_t seen = 0;  // id of the last job this worker looked at
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      sleepers_.fetch_add(1);
      cv_.wait(lock, [&] {
        return stopping_ || ticket_job(ticket_.load()) != seen;
      });
      sleepers_.fetch_sub(1);
      if (ticket_job(ticket_.load()) == seen) {
        return;  // stopping; no job can be in flight once the destructor runs
      }
    }
    seen = run_chunks();
  }
}

}  // namespace matgpt
