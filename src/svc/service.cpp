#include "svc/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "core/chase.hpp"
#include "la/parallel.hpp"
#include "svc/pool.hpp"

namespace chase::svc {

std::string_view job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kUnknown:
    default:
      return "unknown";
  }
}

std::string_view svc_error_name(SvcError e) {
  switch (e) {
    case SvcError::kNone:
      return "none";
    case SvcError::kQueueFull:
      return "queue_full";
    case SvcError::kInvalidJob:
      return "invalid_job";
    case SvcError::kShutdown:
      return "shutdown";
    case SvcError::kUnknownJob:
      return "unknown_job";
    case SvcError::kNotCancellable:
      return "not_cancellable";
    case SvcError::kSolveFailed:
    default:
      return "solve_failed";
  }
}

namespace {

struct JobRecord {
  JobId id = -1;
  ScalarTag tag = ScalarTag::kDouble;
  const void* h = nullptr;  // caller-owned column-major storage
  Index n = 0;
  Index ld = 0;
  Index ne = 0;  // cfg.subspace(): part of the batching bucket key
  core::ChaseConfig cfg;
  JobOptions opts;
  std::uint64_t seq = 0;  // admission order, the final scheduling tiebreak
  JobState state = JobState::kQueued;
  SvcError error = SvcError::kNone;
  std::string message;
  bool converged = false;
  int iterations = 0;
  long dispatch_seq = -1;
  int batch_width = 0;
  double submit_s = 0;
  double dispatch_s = 0;
  double finish_s = 0;
  std::shared_ptr<void> result;  // ChaseResult<T> for the record's tag
};

struct TenantState {
  double weight = 1.0;
  double served = 0;  // jobs dispatched, the fair-share numerator
  std::deque<JobRecord*> pending;  // kept in sched_before order
};

/// Within-tenant dispatch order: priority desc, then deadline asc (absolute,
/// no deadline = infinitely late), then admission order.
bool sched_before(const JobRecord& a, const JobRecord& b) {
  if (a.opts.priority != b.opts.priority) {
    return a.opts.priority > b.opts.priority;
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double da =
      a.opts.deadline_seconds > 0 ? a.submit_s + a.opts.deadline_seconds : inf;
  const double db =
      b.opts.deadline_seconds > 0 ? b.submit_s + b.opts.deadline_seconds : inf;
  if (da != db) return da < db;
  return a.seq < b.seq;
}

bool same_bucket(const JobRecord& a, const JobRecord& b) {
  return a.tag == b.tag && a.n == b.n && a.ne == b.ne;
}

bool terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

template <typename T>
core::ChaseObserver<T>* observer_for(const JobOptions& opts);
template <>
core::ChaseObserver<double>* observer_for<double>(const JobOptions& opts) {
  return opts.observer_d;
}
template <>
core::ChaseObserver<std::complex<double>>*
observer_for<std::complex<double>>(const JobOptions& opts) {
  return opts.observer_z;
}

}  // namespace

struct SolverService::Impl {
  explicit Impl(ServiceConfig c) : cfg(c) {
    cfg.workers = std::max(1, cfg.workers);
    cfg.max_batch = std::max(1, cfg.max_batch);
    cfg.max_queue_depth = std::max<long>(1, cfg.max_queue_depth);
    paused = cfg.start_paused;
    workers.reserve(std::size_t(cfg.workers));
    for (int i = 0; i < cfg.workers; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  // ---- state (guarded by mu unless noted) ----
  ServiceConfig cfg;
  WallTimer epoch;            // service-relative clock, immutable
  perf::Tracker metrics;      // internally thread-safe counter surface
  ArenaPool pool;             // internally locked
  mutable std::mutex mu;
  std::condition_variable work_cv;  // workers: work available / stopping
  std::condition_variable done_cv;  // waiters: a job reached terminal state
  bool accepting = true;
  bool paused = false;
  bool stopping = false;
  JobId next_id = 1;
  std::uint64_t next_seq = 1;
  long next_dispatch = 0;
  long pending_count = 0;
  int running = 0;
  std::map<JobId, std::unique_ptr<JobRecord>> jobs;
  std::map<std::string, TenantState> tenants;
  std::vector<std::thread> workers;

  void tenant_bump(const std::string& tenant, const char* what,
                   double amount = 1.0) {
    metrics.bump(std::string("svc.tenant.") + tenant + "." + what, amount);
  }

  Submission admit(ScalarTag tag, const void* h, Index n, Index ld,
                   const core::ChaseConfig& jcfg, JobOptions opts) {
    if (h == nullptr || n <= 0 || ld < n || jcfg.nev <= 0 ||
        jcfg.subspace() > n || jcfg.initial_degree < 2) {
      metrics.bump("svc.jobs.rejected");
      metrics.bump("svc.jobs.rejected.invalid");
      return {-1, SvcError::kInvalidJob};
    }
    std::unique_lock<std::mutex> lock(mu);
    if (!accepting) {
      metrics.bump("svc.jobs.rejected");
      metrics.bump("svc.jobs.rejected.shutdown");
      return {-1, SvcError::kShutdown};
    }
    if (pending_count >= cfg.max_queue_depth) {
      metrics.bump("svc.jobs.rejected");
      metrics.bump("svc.jobs.rejected.queue_full");
      tenant_bump(opts.tenant, "rejected");
      return {-1, SvcError::kQueueFull};
    }
    auto rec = std::make_unique<JobRecord>();
    rec->id = next_id++;
    rec->tag = tag;
    rec->h = h;
    rec->n = n;
    rec->ld = ld;
    rec->ne = jcfg.subspace();
    rec->cfg = jcfg;
    rec->opts = std::move(opts);
    rec->seq = next_seq++;
    rec->submit_s = epoch.seconds();
    JobRecord* raw = rec.get();
    TenantState& tenant = tenants[raw->opts.tenant];
    auto pos = std::upper_bound(
        tenant.pending.begin(), tenant.pending.end(), raw,
        [](const JobRecord* a, const JobRecord* b) {
          return sched_before(*a, *b);
        });
    tenant.pending.insert(pos, raw);
    ++pending_count;
    jobs.emplace(raw->id, std::move(rec));
    metrics.bump("svc.jobs.admitted");
    tenant_bump(raw->opts.tenant, "admitted");
    lock.unlock();
    work_cv.notify_one();
    return {raw->id, SvcError::kNone};
  }

  /// Weighted-fair head pick + same-bucket batch fill. mu held,
  /// pending_count > 0 on entry.
  std::vector<JobRecord*> pick_batch() {
    TenantState* best = nullptr;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (auto& [name, tenant] : tenants) {  // map order = name tiebreak
      if (tenant.pending.empty()) continue;
      const double ratio = tenant.served / std::max(tenant.weight, 1e-9);
      if (best == nullptr || ratio < best_ratio) {
        best = &tenant;
        best_ratio = ratio;
      }
    }
    std::vector<JobRecord*> batch;
    JobRecord* head = best->pending.front();
    best->pending.pop_front();
    batch.push_back(head);
    if (cfg.max_batch > 1) {
      // Same-bucket fill across every tenant, in global scheduling order.
      std::vector<std::pair<std::string, JobRecord*>> candidates;
      for (auto& [name, tenant] : tenants) {
        for (JobRecord* job : tenant.pending) {
          if (same_bucket(*job, *head)) candidates.emplace_back(name, job);
        }
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const auto& a, const auto& b) {
                  return sched_before(*a.second, *b.second);
                });
      for (auto& [name, job] : candidates) {
        if (int(batch.size()) >= cfg.max_batch) break;
        auto& pending = tenants[name].pending;
        pending.erase(std::find(pending.begin(), pending.end(), job));
        batch.push_back(job);
      }
    }
    const double now = epoch.seconds();
    for (JobRecord* job : batch) {
      tenants[job->opts.tenant].served += 1;
      job->state = JobState::kRunning;
      job->dispatch_seq = next_dispatch++;
      job->batch_width = int(batch.size());
      job->dispatch_s = now;
      metrics.bump("svc.queue.wait_seconds", now - job->submit_s);
    }
    pending_count -= long(batch.size());
    running += int(batch.size());
    metrics.bump("svc.batch.count");
    metrics.bump("svc.batch.jobs", double(batch.size()));
    return batch;
  }

  void worker_loop() {
    const la::ScopedCoreShare share(
        std::max(1, la::cpu_count() / cfg.workers));
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      work_cv.wait(lock, [this] {
        return stopping || (!paused && pending_count > 0);
      });
      if (stopping) return;
      std::vector<JobRecord*> batch = pick_batch();
      lock.unlock();
      if (batch.front()->tag == ScalarTag::kDouble) {
        run_batch<double>(batch);
      } else {
        run_batch<std::complex<double>>(batch);
      }
      lock.lock();
      running -= int(batch.size());
      done_cv.notify_all();
    }
  }

  /// Run a same-bucket batch back-to-back over one pooled arena. Per-job
  /// config (RNG seed included) and observer keep each solve bitwise-equal
  /// to its solo run; the shared arena is value-cleared between jobs.
  template <typename T>
  void run_batch(std::vector<JobRecord*>& batch) {
    perf::Tracker local;  // collect the solver's counters off the hot path
    perf::Tracker* prev = perf::thread_tracker();
    perf::set_thread_tracker(&local);
    const Index n = batch.front()->n;
    const Index ne = batch.front()->ne;
    auto arena = pool.typed<T>().acquire(n, ne, &metrics);
    for (JobRecord* job : batch) {
      auto result = std::make_shared<core::ChaseResult<T>>();
      SvcError error = SvcError::kNone;
      std::string message;
      try {
        arena->ws.clear_values();
        la::ConstMatrixView<T> hv(static_cast<const T*>(job->h), job->n,
                                  job->n, job->ld);
        arena->h.fill_from_global(hv);
        *result = core::solve(arena->h, job->cfg, observer_for<T>(job->opts),
                              la::ConstMatrixView<T>{}, {}, &arena->ws);
      } catch (const Error& e) {
        error = SvcError::kSolveFailed;
        message = e.what();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        job->state =
            error == SvcError::kNone ? JobState::kDone : JobState::kFailed;
        job->error = error;
        job->message = std::move(message);
        job->converged = result->converged;
        job->iterations = result->iterations;
        job->finish_s = epoch.seconds();
        job->result = std::move(result);
        metrics.bump("svc.solve.seconds", job->finish_s - job->dispatch_s);
        if (error == SvcError::kNone) {
          metrics.bump("svc.jobs.completed");
          tenant_bump(job->opts.tenant, "completed");
        } else {
          metrics.bump("svc.jobs.failed");
          tenant_bump(job->opts.tenant, "failed");
        }
      }
      done_cv.notify_all();
    }
    pool.typed<T>().release(std::move(arena), &metrics);
    perf::set_thread_tracker(prev);
    for (const auto& [name, value] : local.counters()) {
      metrics.bump(name, value);
    }
  }

  JobInfo info_locked(JobId id) const {  // mu held
    JobInfo out;
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
      out.error = SvcError::kUnknownJob;
      return out;
    }
    const JobRecord& job = *it->second;
    const double now = epoch.seconds();
    out.state = job.state;
    out.error = job.error;
    out.message = job.message;
    out.tag = job.tag;
    out.tenant = job.opts.tenant;
    out.n = job.n;
    out.nev = job.cfg.nev;
    out.converged = job.converged;
    out.iterations = job.iterations;
    out.dispatch_seq = job.dispatch_seq;
    out.batch_width = job.batch_width;
    switch (job.state) {
      case JobState::kQueued:
        out.queue_seconds = now - job.submit_s;
        break;
      case JobState::kRunning:
        out.queue_seconds = job.dispatch_s - job.submit_s;
        out.solve_seconds = now - job.dispatch_s;
        break;
      case JobState::kCancelled:
        out.queue_seconds = job.finish_s - job.submit_s;
        break;
      default:
        out.queue_seconds = job.dispatch_s - job.submit_s;
        out.solve_seconds = job.finish_s - job.dispatch_s;
        break;
    }
    return out;
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (stopping) return;
      accepting = false;
      for (auto& [name, tenant] : tenants) {
        for (JobRecord* job : tenant.pending) {
          job->state = JobState::kCancelled;
          job->error = SvcError::kShutdown;
          job->finish_s = epoch.seconds();
          metrics.bump("svc.jobs.cancelled");
          tenant_bump(job->opts.tenant, "cancelled");
        }
        tenant.pending.clear();
      }
      pending_count = 0;
      stopping = true;
    }
    work_cv.notify_all();
    for (std::thread& worker : workers) worker.join();
    workers.clear();
    done_cv.notify_all();
  }
};

SolverService::SolverService(ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

SolverService::~SolverService() { impl_->shutdown(); }

Submission SolverService::submit(la::ConstMatrixView<double> h,
                                 const core::ChaseConfig& cfg,
                                 JobOptions opts) {
  if (h.rows() != h.cols()) return {-1, SvcError::kInvalidJob};
  return impl_->admit(ScalarTag::kDouble, h.data(), h.rows(), h.ld(), cfg,
                      std::move(opts));
}

Submission SolverService::submit(la::ConstMatrixView<std::complex<double>> h,
                                 const core::ChaseConfig& cfg,
                                 JobOptions opts) {
  if (h.rows() != h.cols()) return {-1, SvcError::kInvalidJob};
  return impl_->admit(ScalarTag::kComplexDouble, h.data(), h.rows(), h.ld(),
                      cfg, std::move(opts));
}

JobState SolverService::poll(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  return it == impl_->jobs.end() ? JobState::kUnknown : it->second->state;
}

JobInfo SolverService::info(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->info_locked(id);
}

JobInfo SolverService::wait(JobId id) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock, [this, id] {
    const auto it = impl_->jobs.find(id);
    return it == impl_->jobs.end() || terminal(it->second->state);
  });
  return impl_->info_locked(id);
}

SvcError SolverService::cancel(JobId id) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return SvcError::kUnknownJob;
  JobRecord& job = *it->second;
  if (job.state != JobState::kQueued) return SvcError::kNotCancellable;
  auto& pending = impl_->tenants[job.opts.tenant].pending;
  pending.erase(std::find(pending.begin(), pending.end(), &job));
  --impl_->pending_count;
  job.state = JobState::kCancelled;
  job.finish_s = impl_->epoch.seconds();
  impl_->metrics.bump("svc.jobs.cancelled");
  impl_->tenant_bump(job.opts.tenant, "cancelled");
  lock.unlock();
  impl_->done_cv.notify_all();
  return SvcError::kNone;
}

void SolverService::drain() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock, [this] {
    return impl_->pending_count == 0 && impl_->running == 0;
  });
}

void SolverService::pause() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->paused = true;
}

void SolverService::resume() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->paused = false;
  }
  impl_->work_cv.notify_all();
}

void SolverService::shutdown() { impl_->shutdown(); }

void SolverService::set_tenant_weight(const std::string& tenant,
                                      double weight) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->tenants[tenant].weight = std::max(weight, 1e-9);
}

double SolverService::counter(std::string_view name) const {
  return impl_->metrics.counter(name);
}

perf::Tracker& SolverService::metrics() { return impl_->metrics; }

long SolverService::pool_entries() const { return impl_->pool.entries(); }
long SolverService::pool_high_water() const {
  return impl_->pool.high_water();
}
long SolverService::pool_steady_growth() const {
  return impl_->pool.steady_growth();
}

std::shared_ptr<void> SolverService::result_any(JobId id,
                                                ScalarTag tag) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return nullptr;
  const JobRecord& job = *it->second;
  if (job.tag != tag || job.state != JobState::kDone) return nullptr;
  return job.result;
}

}  // namespace chase::svc
