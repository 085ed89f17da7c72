#include "la/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace chase::la {

namespace {

int affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1, int(std::thread::hardware_concurrency()));
}

/// 0 = never pinned: the thread's share is the CPU count.
thread_local int t_share = 0;

/// One call's units. `next` hands out units; `wanted` and `attached` are
/// guarded by the pool mutex.
struct Job {
  detail::UnitFn fn = nullptr;
  void* ctx = nullptr;
  Index units = 0;
  std::atomic<Index> next{0};
  int wanted = 0;    // helper slots not yet taken
  int attached = 0;  // helpers currently running units of this job

  void drain() {
    for (Index u; (u = next.fetch_add(1, std::memory_order_relaxed)) < units;) {
      fn(ctx, u);
    }
  }
};

class HelperPool {
 public:
  explicit HelperPool(int threads) {
    threads_.reserve(std::size_t(threads));
    for (int i = 0; i < threads; ++i) threads_.emplace_back([this] { loop(); });
  }

  ~HelperPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(&job);
    }
    work_cv_.notify_all();
    {
      const ScopedCoreShare serial(1);
      job.drain();
    }
    std::unique_lock<std::mutex> lock(mu_);
    // Withdraw the slots no helper took, then wait only for helpers that are
    // inside a unit: every unit has been claimed by now.
    auto it = std::find(queue_.begin(), queue_.end(), &job);
    if (it != queue_.end()) queue_.erase(it);
    done_cv_.wait(lock, [&] { return job.attached == 0; });
  }

 private:
  void loop() {
    t_share = 1;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      Job* job = queue_.front();
      if (--job->wanted == 0) queue_.pop_front();
      ++job->attached;
      lock.unlock();
      job->drain();
      lock.lock();
      if (--job->attached == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;  // guards queue_, stopping_ and every queued Job's slots
  std::condition_variable work_cv_;  // helpers: a job has open slots
  std::condition_variable done_cv_;  // callers: a helper left a job
  std::deque<Job*> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // last: the helpers use the above
};

HelperPool& helper_pool() {
  static HelperPool pool(cpu_count() - 1);
  return pool;
}

}  // namespace

int cpu_count() {
  static const int cpus = affinity_cpus();
  return cpus;
}

int core_share() { return t_share > 0 ? t_share : cpu_count(); }

ScopedCoreShare::ScopedCoreShare(int share) : prev_(t_share) {
  t_share = std::max(1, share);
}

ScopedCoreShare::~ScopedCoreShare() { t_share = prev_; }

namespace detail {

void run_units(Index units, int helpers, UnitFn fn, void* ctx) {
  helpers = std::min(helpers, cpu_count() - 1);
  if (helpers <= 0) {
    for (Index u = 0; u < units; ++u) fn(ctx, u);
    return;
  }
  Job job{fn, ctx, units, {0}, helpers};
  helper_pool().run(job);
}

}  // namespace detail

}  // namespace chase::la
