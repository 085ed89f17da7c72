#include "capi/chase_c.h"

#include <complex>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "ckpt/restart.hpp"
#include "core/precision.hpp"
#include "core/sequential.hpp"
#include "svc/service.hpp"
#include "tune/profile.hpp"

namespace {

using namespace chase;

/* Build the solver config from the C parameter block, applying the
 * documented defaults for unset (<= 0) fields. */
core::ChaseConfig config_from_params(const chase_params& p) {
  core::ChaseConfig cfg;
  cfg.nev = p.nev;
  cfg.nex = p.nex > 0 ? p.nex : std::max<long>(p.nev / 4, 4);
  cfg.tol = p.tol > 0 ? p.tol : 1e-10;
  cfg.max_iterations = p.max_iterations > 0 ? p.max_iterations : 40;
  cfg.optimize_degree = p.optimize_degree != 0;
  cfg.initial_degree = p.initial_degree > 1 ? p.initial_degree : 20;
  cfg.max_degree = p.max_degree > 1 ? p.max_degree : 36;
  cfg.seed = p.seed != 0 ? p.seed : 2023;
  return cfg;
}

/* Process-global checkpoint policy for the C entry points: one shared
 * file-backed sink plus the capture cadence, guarded for concurrent
 * callers. */
struct CkptState {
  std::mutex mutex;
  std::unique_ptr<ckpt::FileSink> sink;
  int interval = 0;
};

CkptState& ckpt_state() {
  static CkptState state;
  return state;
}

template <typename T>
int solve_lowest(const T* h, long n, const chase_params* p,
                 RealType<T>* w, T* z) {
  if (h == nullptr || w == nullptr || p == nullptr || n <= 0 || p->nev <= 0 ||
      p->nev + p->nex > n) {
    return CHASE_INVALID_ARGUMENT;
  }
  core::ChaseConfig cfg = config_from_params(*p);

  try {
    la::ConstMatrixView<T> hv(h, n, n, n);
    // Checkpoint plumbing: capture into the shared sink at the configured
    // cadence, and resume from the newest decodable snapshot whose shape and
    // scalar type match this problem (decode<T> rejects a tag mismatch).
    auto& cs = ckpt_state();
    std::lock_guard<std::mutex> ckpt_lock(cs.mutex);
    ckpt::SolveCkpt<T> ck;
    ckpt::Snapshot<T> snap;
    std::unique_ptr<ckpt::CheckpointEngine<T>> engine;
    if (cs.sink != nullptr) {
      engine = std::make_unique<ckpt::CheckpointEngine<T>>(cs.sink.get(),
                                                           cs.interval);
      ck.engine = engine.get();
      if (ckpt::load_last_good(*cs.sink, snap) && snap.n == n &&
          snap.ne == cfg.subspace()) {
        ck.resume = &snap;
      }
    }
    auto result = core::solve_sequential<T>(hv, cfg, nullptr, {}, ck);
    for (long j = 0; j < p->nev; ++j) {
      w[j] = result.eigenvalues[std::size_t(j)];
    }
    if (z != nullptr) {
      for (long j = 0; j < p->nev; ++j) {
        std::memcpy(z + std::size_t(j) * std::size_t(n),
                    result.eigenvectors.col(j), sizeof(T) * std::size_t(n));
      }
    }
    return result.converged ? CHASE_SUCCESS : CHASE_NOT_CONVERGED;
  } catch (const Error&) {
    return CHASE_INVALID_ARGUMENT;
  }
}

/* Caller output buffers of one service job, filled on the first observed
 * completion (poll/wait). */
struct JobOut {
  double* w = nullptr;
  double* z = nullptr;  // interleaved complex for _z jobs
  long n = 0;
  long nev = 0;
  bool copied = false;
};

/* Live-handle registry: every handle-taking entry point validates against
 * it, so NULL, double-destroyed, and never-created handles get
 * CHASE_INVALID_HANDLE instead of undefined behavior. */
struct HandleRegistry {
  std::mutex mutex;
  std::set<chase_service*> live;
};

HandleRegistry& handle_registry() {
  static HandleRegistry registry;
  return registry;
}

bool handle_live(chase_service* svc) {
  auto& registry = handle_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.live.count(svc) != 0;
}

int svc_error_code(svc::SvcError e) {
  switch (e) {
    case svc::SvcError::kNone:
      return CHASE_SUCCESS;
    case svc::SvcError::kQueueFull:
      return CHASE_QUEUE_FULL;
    case svc::SvcError::kInvalidJob:
      return CHASE_INVALID_ARGUMENT;
    case svc::SvcError::kShutdown:
      return CHASE_SHUTDOWN;
    case svc::SvcError::kUnknownJob:
      return CHASE_UNKNOWN_JOB;
    case svc::SvcError::kNotCancellable:
      return CHASE_NOT_CANCELLABLE;
    case svc::SvcError::kSolveFailed:
    default:
      return CHASE_SOLVE_FAILED;
  }
}

}  // namespace

/* The C handle: the service plus the registered output buffers. */
struct chase_service {
  explicit chase_service(const svc::ServiceConfig& cfg) : service(cfg) {}
  svc::SolverService service;
  std::mutex mutex;  // guards outs
  std::map<long, JobOut> outs;
};

namespace {

/* Copy a completed job's eigenpairs into the caller's buffers, once. */
template <typename T>
void copy_out_typed(chase_service* svc, long job, JobOut& out) {
  auto result = svc->service.result<T>(job);
  if (result == nullptr) return;
  for (long j = 0; j < out.nev; ++j) {
    out.w[j] = result->eigenvalues[std::size_t(j)];
  }
  if (out.z != nullptr) {
    std::memcpy(out.z, result->eigenvectors.data(),
                sizeof(T) * std::size_t(out.n) * std::size_t(out.nev));
  }
}

/* Map a terminal/live job state onto the C return code; fills the output
 * buffers on the first observed completion. */
int job_status_code(chase_service* svc, long job) {
  const svc::JobInfo info = svc->service.info(job);
  switch (info.state) {
    case svc::JobState::kUnknown:
      return CHASE_UNKNOWN_JOB;
    case svc::JobState::kQueued:
      return CHASE_JOB_QUEUED;
    case svc::JobState::kRunning:
      return CHASE_JOB_RUNNING;
    case svc::JobState::kCancelled:
      return CHASE_JOB_CANCELLED;
    case svc::JobState::kFailed:
      return CHASE_SOLVE_FAILED;
    case svc::JobState::kDone:
    default:
      break;
  }
  std::lock_guard<std::mutex> lock(svc->mutex);
  auto it = svc->outs.find(job);
  if (it != svc->outs.end() && !it->second.copied) {
    if (info.tag == svc::ScalarTag::kDouble) {
      copy_out_typed<double>(svc, job, it->second);
    } else {
      copy_out_typed<std::complex<double>>(svc, job, it->second);
    }
    it->second.copied = true;
  }
  return info.converged ? CHASE_SUCCESS : CHASE_NOT_CONVERGED;
}

template <typename T>
long service_submit(chase_service* svc, const double* h, long n,
                    const chase_params* p, const char* tenant, int priority,
                    double* w, double* z) {
  if (!handle_live(svc)) return CHASE_INVALID_HANDLE;
  if (h == nullptr || w == nullptr || p == nullptr || n <= 0 ||
      p->nev <= 0 || p->nev + p->nex > n) {
    return CHASE_INVALID_ARGUMENT;
  }
  svc::JobOptions opts;
  opts.tenant = tenant != nullptr && tenant[0] != '\0' ? tenant : "default";
  opts.priority = priority;
  la::ConstMatrixView<T> hv(reinterpret_cast<const T*>(h), n, n, n);
  const svc::Submission sub =
      svc->service.submit(hv, config_from_params(*p), std::move(opts));
  if (!sub.ok()) return svc_error_code(sub.error);
  std::lock_guard<std::mutex> lock(svc->mutex);
  svc->outs[sub.id] = JobOut{w, z, n, p->nev, false};
  return sub.id;
}

}  // namespace

extern "C" {

void chase_default_params(long nev, chase_params* p) {
  p->nev = nev;
  p->nex = nev / 4 > 4 ? nev / 4 : 4;
  p->tol = 1e-10;
  p->max_iterations = 40;
  p->optimize_degree = 1;
  p->initial_degree = 20;
  p->max_degree = 36;
  p->seed = 2023;
}

int chase_zheev_lowest(const double* h, long n, const chase_params* p,
                       double* w, double* z) {
  return solve_lowest(reinterpret_cast<const std::complex<double>*>(h), n, p,
                      w, reinterpret_cast<std::complex<double>*>(z));
}

int chase_dsyev_lowest(const double* h, long n, const chase_params* p,
                       double* w, double* z) {
  return solve_lowest(h, n, p, w, z);
}

int chase_checkpoint_enable(const char* dir, int interval) {
  if (dir == nullptr || dir[0] == '\0') return CHASE_INVALID_ARGUMENT;
  try {
    auto sink = std::make_unique<chase::ckpt::FileSink>(dir);
    auto& cs = ckpt_state();
    std::lock_guard<std::mutex> lock(cs.mutex);
    cs.sink = std::move(sink);
    cs.interval =
        interval > 0 ? interval : chase::ckpt::checkpoint_interval();
    return CHASE_SUCCESS;
  } catch (const chase::Error&) {
    return CHASE_INVALID_ARGUMENT;
  }
}

void chase_checkpoint_disable(void) {
  auto& cs = ckpt_state();
  std::lock_guard<std::mutex> lock(cs.mutex);
  cs.sink.reset();
  cs.interval = 0;
}

int chase_set_precision(const char* name) {
  if (name == nullptr) return CHASE_INVALID_ARGUMENT;
  try {
    auto parsed = chase::core::parse_precision(name);
    if (!parsed) return CHASE_INVALID_ARGUMENT;
    chase::core::precision_policy.set_raw(int(*parsed));
    return CHASE_SUCCESS;
  } catch (const chase::Error&) {
    return CHASE_INVALID_ARGUMENT;
  }
}

const char* chase_get_precision(void) {
  try {
    return chase::core::precision_name(chase::core::precision()).data();
  } catch (const chase::Error&) {
    return nullptr;  // CHASE_PRECISION holds an unknown value
  }
}

int chase_profile_load(const char* path) {
  if (path == nullptr || path[0] == '\0') return CHASE_INVALID_ARGUMENT;
  const auto profile = tune::load_profile(path);
  if (!profile || !tune::install_profile(*profile)) {
    return CHASE_PROFILE_REJECTED;
  }
  return CHASE_SUCCESS;
}

void chase_profile_unload(void) { tune::uninstall_profile(); }

void chase_service_default_params(chase_service_params* p) {
  p->workers = 2;
  p->max_batch = 8;
  p->max_queue_depth = 256;
}

chase_service* chase_service_create(const chase_service_params* p) {
  chase_service_params defaults;
  chase_service_default_params(&defaults);
  if (p == nullptr) p = &defaults;
  if (p->workers <= 0 || p->max_batch <= 0 || p->max_queue_depth <= 0) {
    return nullptr;
  }
  svc::ServiceConfig cfg;
  cfg.workers = p->workers;
  cfg.max_batch = p->max_batch;
  cfg.max_queue_depth = p->max_queue_depth;
  auto* svc = new chase_service(cfg);
  auto& registry = handle_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.live.insert(svc);
  return svc;
}

int chase_service_destroy(chase_service* svc) {
  {
    auto& registry = handle_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    if (registry.live.erase(svc) == 0) return CHASE_INVALID_HANDLE;
  }
  delete svc;
  return CHASE_SUCCESS;
}

long chase_service_submit_d(chase_service* svc, const double* h, long n,
                            const chase_params* p, const char* tenant,
                            int priority, double* w, double* z) {
  return service_submit<double>(svc, h, n, p, tenant, priority, w, z);
}

long chase_service_submit_z(chase_service* svc, const double* h, long n,
                            const chase_params* p, const char* tenant,
                            int priority, double* w, double* z) {
  return service_submit<std::complex<double>>(svc, h, n, p, tenant, priority,
                                              w, z);
}

int chase_service_poll(chase_service* svc, long job) {
  if (!handle_live(svc)) return CHASE_INVALID_HANDLE;
  return job_status_code(svc, job);
}

int chase_service_wait(chase_service* svc, long job) {
  if (!handle_live(svc)) return CHASE_INVALID_HANDLE;
  svc->service.wait(job);
  return job_status_code(svc, job);
}

int chase_service_cancel(chase_service* svc, long job) {
  if (!handle_live(svc)) return CHASE_INVALID_HANDLE;
  return svc_error_code(svc->service.cancel(job));
}

}  // extern "C"
