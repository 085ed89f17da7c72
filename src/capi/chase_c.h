/* C interface to the ChASE eigensolver.
 *
 * The real ChASE library ships C and Fortran bindings so electronic-
 * structure codes (FLEUR, the BSE drivers of Table 1) can call it without a
 * C++ toolchain; this header provides the same surface for this
 * reproduction. Matrices are dense column-major; complex scalars are
 * interleaved (re, im) doubles, binary-compatible with C99 `double complex`
 * and Fortran `complex*16`.
 */
#ifndef CHASE_REPRO_CAPI_CHASE_C_H_
#define CHASE_REPRO_CAPI_CHASE_C_H_

#ifdef __cplusplus
extern "C" {
#endif

typedef struct chase_params {
  long nev;             /* wanted lowest eigenpairs */
  long nex;             /* extra search directions (default: max(nev/4, 4)) */
  double tol;           /* relative residual threshold (default 1e-10) */
  int max_iterations;   /* outer iteration cap (default 40) */
  int optimize_degree;  /* per-vector filter degree optimization (default 1) */
  int initial_degree;   /* first-iteration Chebyshev degree (default 20) */
  int max_degree;       /* degree cap (default 36) */
  unsigned long seed;   /* random-subspace seed (default 2023) */
} chase_params;

/* Fill `p` with the library defaults for `nev` wanted pairs. */
void chase_default_params(long nev, chase_params* p);

/* Return codes. Non-negative codes are states, negative codes are errors.
 * Handle-taking entry points validate the handle against a live-handle
 * registry, so double-destroy and use-after-destroy report
 * CHASE_INVALID_HANDLE instead of undefined behavior. */
enum {
  CHASE_SUCCESS = 0,
  CHASE_NOT_CONVERGED = 1,
  CHASE_JOB_QUEUED = 2,       /* service job still waiting for dispatch */
  CHASE_JOB_RUNNING = 3,      /* service job currently solving */
  CHASE_JOB_CANCELLED = 4,    /* service job cancelled before dispatch */
  CHASE_INVALID_ARGUMENT = -1,
  CHASE_QUEUE_FULL = -2,      /* bounded service queue at capacity */
  CHASE_INVALID_HANDLE = -3,  /* NULL, destroyed, or foreign handle */
  CHASE_UNKNOWN_JOB = -4,     /* id was never issued by this service */
  CHASE_SHUTDOWN = -5,        /* service no longer accepting work */
  CHASE_NOT_CANCELLABLE = -6, /* job already dispatched or finished */
  CHASE_SOLVE_FAILED = -7,    /* solver raised an internal error */
};

/* Lowest eigenpairs of a complex Hermitian matrix.
 *   h: n x n column-major, interleaved complex double; only read.
 *   w: out, p->nev eigenvalues ascending.
 *   z: out, n x p->nev column-major complex eigenvectors; may be NULL.
 * Returns CHASE_SUCCESS, CHASE_NOT_CONVERGED (w/z hold the best available
 * approximations), or CHASE_INVALID_ARGUMENT.
 */
int chase_zheev_lowest(const double* h, long n, const chase_params* p,
                       double* w, double* z);

/* Lowest eigenpairs of a real symmetric matrix (column-major doubles). */
int chase_dsyev_lowest(const double* h, long n, const chase_params* p,
                       double* w, double* z);

/* Checkpoint/restart (src/ckpt) for the solves above.
 *
 * chase_checkpoint_enable arms file-backed checkpointing: every subsequent
 * solve writes a CRC-guarded snapshot of its full state into `dir` every
 * `interval` outer iterations (interval <= 0 defers to CHASE_CKPT_INTERVAL),
 * and — if `dir` already holds a snapshot matching the problem shape and
 * scalar type — resumes from it instead of starting over. A snapshot that
 * fails its CRC or does not match is skipped silently (the solve simply
 * starts fresh), so a stale directory is never fatal.
 * Returns CHASE_SUCCESS, or CHASE_INVALID_ARGUMENT if `dir` is NULL/empty
 * or cannot be created.
 */
int chase_checkpoint_enable(const char* dir, int interval);

/* Disarm checkpointing; solves neither write nor read snapshots. */
void chase_checkpoint_disable(void);

/* Select the solve precision policy for subsequent solves (process-global,
 * same slot the CHASE_PRECISION environment variable initializes):
 *   "double" — every kernel in working precision (the default);
 *   "mixed"  — the Chebyshev filter runs in fp32 on a low-precision shadow
 *              of H with residual-driven per-column fallback to fp64;
 *              QR, Rayleigh-Ritz, residuals and locking stay fp64, and
 *              locked pairs get one step of fp64 iterative refinement.
 * Returns CHASE_SUCCESS, or CHASE_INVALID_ARGUMENT for any other name. */
int chase_set_precision(const char* name);

/* Name of the currently active precision policy ("double" or "mixed");
 * static storage, do not free. Returns NULL when the CHASE_PRECISION
 * environment variable holds an unknown value and no chase_set_precision
 * call has replaced it. */
const char* chase_get_precision(void);

/* ---- Batched multi-tenant solver service (src/svc) ----
 *
 * A service owns a worker pool, a bounded job queue with weighted-fair
 * tenant scheduling, and a size-bucketed arena pool; same-size jobs are
 * coalesced into one batched dispatch (each job's result stays bitwise
 * identical to its standalone chase_*_lowest solve). Typical use:
 *
 *   chase_service* s = chase_service_create(NULL);
 *   long job = chase_service_submit_d(s, h, n, &p, "tenant-a", 0, w, z);
 *   int rc = chase_service_wait(s, job);      // CHASE_SUCCESS: w/z filled
 *   chase_service_destroy(s);
 */

typedef struct chase_service chase_service;

typedef struct chase_service_params {
  int workers;          /* solver threads (default 2) */
  int max_batch;        /* same-size batching cap (default 8, 1 = off) */
  long max_queue_depth; /* queued-job cap before CHASE_QUEUE_FULL
                         * (default 256) */
} chase_service_params;

/* Fill `p` with the service defaults. */
void chase_service_default_params(chase_service_params* p);

/* Start a service (NULL `p` = defaults). Returns NULL on invalid params. */
chase_service* chase_service_create(const chase_service_params* p);

/* Stop the service: queued jobs are cancelled, running jobs finish, workers
 * join, the handle is invalidated. Returns CHASE_SUCCESS, or
 * CHASE_INVALID_HANDLE on NULL / double destroy. */
int chase_service_destroy(chase_service* svc);

/* Submit one eigenproblem; returns a non-negative job id, or a negative
 * return code (CHASE_QUEUE_FULL, CHASE_INVALID_ARGUMENT, CHASE_SHUTDOWN,
 * CHASE_INVALID_HANDLE). `h` is borrowed and must stay valid until the job
 * finishes. `w` (nev doubles) is required; `z` (n x nev column-major, NULL
 * to skip eigenvectors) is complex-interleaved for _z. Both are written when
 * the job completes and the caller observes it via poll/wait. `tenant`
 * (NULL = "default") and `priority` feed the weighted-fair scheduler. */
long chase_service_submit_d(chase_service* svc, const double* h, long n,
                            const chase_params* p, const char* tenant,
                            int priority, double* w, double* z);
long chase_service_submit_z(chase_service* svc, const double* h, long n,
                            const chase_params* p, const char* tenant,
                            int priority, double* w, double* z);

/* Nonblocking job status: CHASE_JOB_QUEUED / CHASE_JOB_RUNNING /
 * CHASE_JOB_CANCELLED / CHASE_SUCCESS / CHASE_NOT_CONVERGED /
 * CHASE_SOLVE_FAILED / CHASE_UNKNOWN_JOB / CHASE_INVALID_HANDLE. On the
 * first observed completion the job's w/z output buffers are filled. */
int chase_service_poll(chase_service* svc, long job);

/* Block until the job reaches a terminal state; same codes as poll. */
int chase_service_wait(chase_service* svc, long job);

/* Cancel a still-queued job: CHASE_SUCCESS, CHASE_NOT_CANCELLABLE,
 * CHASE_UNKNOWN_JOB, or CHASE_INVALID_HANDLE. */
int chase_service_cancel(chase_service* svc, long job);

#ifdef __cplusplus
}
#endif

#endif /* CHASE_REPRO_CAPI_CHASE_C_H_ */
