// Lifecycle, admission control, fairness, batching, and pool behavior of
// the solver service. Scheduling-order tests build their backlog on a
// paused service so the dispatch sequence is deterministic.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "core/sequential.hpp"
#include "gen/spectrum.hpp"

namespace {

using namespace chase;
using svc::JobState;
using svc::SvcError;

template <typename T>
la::Matrix<T> test_matrix(la::Index n, std::uint64_t seed) {
  return gen::hermitian_with_spectrum<T>(
      gen::uniform_spectrum<double>(n, -1.0, 3.0), seed);
}

core::ChaseConfig small_cfg(la::Index nev = 5, la::Index nex = 3) {
  core::ChaseConfig cfg;
  cfg.nev = nev;
  cfg.nex = nex;
  return cfg;
}

TEST(Service, SubmitWaitSolvesBothTypes) {
  svc::SolverService service;
  const la::Index n = 48;
  const auto eigs = gen::uniform_spectrum<double>(n, -1.0, 3.0);
  auto hd = gen::hermitian_with_spectrum<double>(eigs, 11);
  auto hz = gen::hermitian_with_spectrum<std::complex<double>>(eigs, 12);

  const auto sd = service.submit(hd.cview(), small_cfg());
  const auto sz = service.submit(hz.cview(), small_cfg());
  ASSERT_TRUE(sd.ok());
  ASSERT_TRUE(sz.ok());

  const auto id = service.wait(sd.id);
  const auto iz = service.wait(sz.id);
  EXPECT_EQ(id.state, JobState::kDone);
  EXPECT_EQ(iz.state, JobState::kDone);
  EXPECT_TRUE(id.converged);
  EXPECT_TRUE(iz.converged);

  const auto rd = service.result<double>(sd.id);
  const auto rz = service.result<std::complex<double>>(sz.id);
  ASSERT_NE(rd, nullptr);
  ASSERT_NE(rz, nullptr);
  for (int j = 0; j < 5; ++j) {
    EXPECT_NEAR(rd->eigenvalues[std::size_t(j)], eigs[std::size_t(j)], 1e-7);
    EXPECT_NEAR(rz->eigenvalues[std::size_t(j)], eigs[std::size_t(j)], 1e-7);
  }
  // Type-mismatched result access yields an empty pointer, not UB.
  EXPECT_EQ(service.result<std::complex<double>>(sd.id), nullptr);
  EXPECT_EQ(service.counter("svc.jobs.completed"), 2.0);
  EXPECT_EQ(service.counter("svc.tenant.default.completed"), 2.0);
  EXPECT_EQ(service.counter("svc.jobs.admitted"), 2.0);
}

TEST(Service, AdmissionControlRejectsWhenFull) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 4;
  cfg.start_paused = true;
  // Declared before the service so it outlives it: the last job below
  // borrows h and may still be running when the service shuts down.
  auto h = test_matrix<double>(40, 7);
  svc::SolverService service(cfg);

  std::vector<svc::JobId> admitted;
  for (int i = 0; i < 4; ++i) {
    const auto sub = service.submit(h.cview(), small_cfg());
    ASSERT_TRUE(sub.ok());
    admitted.push_back(sub.id);
  }
  const auto rejected = service.submit(h.cview(), small_cfg());
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error, SvcError::kQueueFull);
  EXPECT_EQ(service.counter("svc.jobs.rejected"), 1.0);
  EXPECT_EQ(service.counter("svc.jobs.rejected.queue_full"), 1.0);

  service.resume();
  service.drain();
  for (const auto id : admitted) {
    EXPECT_EQ(service.poll(id), JobState::kDone);
  }
  // Depth freed up: admission works again.
  EXPECT_TRUE(service.submit(h.cview(), small_cfg()).ok());
}

TEST(Service, InvalidJobsRejectedTyped) {
  svc::SolverService service;
  auto h = test_matrix<double>(32, 3);

  auto cfg = small_cfg();
  cfg.nev = 0;  // no wanted pairs
  EXPECT_EQ(service.submit(h.cview(), cfg).error, SvcError::kInvalidJob);

  cfg = small_cfg(30, 8);  // subspace exceeds n
  EXPECT_EQ(service.submit(h.cview(), cfg).error, SvcError::kInvalidJob);

  EXPECT_EQ(service
                .submit(la::ConstMatrixView<double>(nullptr, 32, 32, 32),
                        small_cfg())
                .error,
            SvcError::kInvalidJob);

  EXPECT_EQ(service.counter("svc.jobs.rejected.invalid"), 3.0);

  service.shutdown();
  EXPECT_EQ(service.submit(h.cview(), small_cfg()).error,
            SvcError::kShutdown);
}

TEST(Service, CancelQueuedJob) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  svc::SolverService service(cfg);
  auto h = test_matrix<double>(40, 5);

  const auto first = service.submit(h.cview(), small_cfg());
  const auto second = service.submit(h.cview(), small_cfg());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(service.cancel(second.id), SvcError::kNone);
  EXPECT_EQ(service.poll(second.id), JobState::kCancelled);
  EXPECT_EQ(service.cancel(second.id), SvcError::kNotCancellable);
  EXPECT_EQ(service.cancel(9999), SvcError::kUnknownJob);

  service.resume();
  EXPECT_EQ(service.wait(first.id).state, JobState::kDone);
  EXPECT_EQ(service.cancel(first.id), SvcError::kNotCancellable);
  // The cancelled job never ran and holds no result.
  EXPECT_EQ(service.result<double>(second.id), nullptr);
  EXPECT_EQ(service.counter("svc.jobs.cancelled"), 1.0);
  EXPECT_EQ(service.wait(second.id).state, JobState::kCancelled);
}

TEST(Service, UnknownJobIsTyped) {
  svc::SolverService service;
  EXPECT_EQ(service.poll(42), JobState::kUnknown);
  const auto info = service.wait(42);
  EXPECT_EQ(info.state, JobState::kUnknown);
  EXPECT_EQ(info.error, SvcError::kUnknownJob);
}

TEST(Service, WeightedFairPickAcrossTenants) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;  // isolate the fair pick from batching
  cfg.start_paused = true;
  svc::SolverService service(cfg);
  service.set_tenant_weight("tenant-a", 2.0);
  service.set_tenant_weight("tenant-b", 1.0);
  auto h = test_matrix<double>(40, 9);

  std::vector<svc::JobId> a_jobs, b_jobs;
  for (int i = 0; i < 6; ++i) {
    svc::JobOptions opts;
    opts.tenant = "tenant-a";
    a_jobs.push_back(service.submit(h.cview(), small_cfg(), opts).id);
    opts.tenant = "tenant-b";
    b_jobs.push_back(service.submit(h.cview(), small_cfg(), opts).id);
  }
  service.resume();
  service.drain();

  // With weights 2:1 the first 9 dispatch slots split 6:3.
  int a_early = 0, b_early = 0;
  for (const auto id : a_jobs) {
    if (service.info(id).dispatch_seq < 9) ++a_early;
  }
  for (const auto id : b_jobs) {
    if (service.info(id).dispatch_seq < 9) ++b_early;
  }
  EXPECT_EQ(a_early, 6);
  EXPECT_EQ(b_early, 3);
  EXPECT_EQ(service.counter("svc.tenant.tenant-a.completed"), 6.0);
  EXPECT_EQ(service.counter("svc.tenant.tenant-b.completed"), 6.0);
}

TEST(Service, PriorityAndDeadlineOrderWithinTenant) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.start_paused = true;
  svc::SolverService service(cfg);
  auto h = test_matrix<double>(40, 13);

  svc::JobOptions opts;
  const auto low = service.submit(h.cview(), small_cfg(), opts);
  opts.priority = 5;
  const auto high_late = service.submit(h.cview(), small_cfg(), opts);
  opts.deadline_seconds = 0.5;
  const auto high_tight = service.submit(h.cview(), small_cfg(), opts);
  opts.deadline_seconds = 60.0;
  const auto high_loose = service.submit(h.cview(), small_cfg(), opts);

  service.resume();
  service.drain();

  // Priority first; within priority 5 the deadlines order tight < loose <
  // none; the priority-0 job runs last.
  EXPECT_EQ(service.info(high_tight.id).dispatch_seq, 0);
  EXPECT_EQ(service.info(high_loose.id).dispatch_seq, 1);
  EXPECT_EQ(service.info(high_late.id).dispatch_seq, 2);
  EXPECT_EQ(service.info(low.id).dispatch_seq, 3);
}

TEST(Service, SameSizeBatchingCoalesces) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.start_paused = true;
  svc::SolverService service(cfg);

  std::vector<la::Matrix<double>> small_jobs;
  for (int i = 0; i < 4; ++i) {
    small_jobs.push_back(test_matrix<double>(40, 20 + std::uint64_t(i)));
  }
  auto odd = test_matrix<double>(56, 30);

  std::vector<svc::JobId> ids;
  ids.push_back(service.submit(small_jobs[0].cview(), small_cfg()).id);
  ids.push_back(service.submit(odd.cview(), small_cfg(6, 4)).id);
  for (int i = 1; i < 4; ++i) {
    ids.push_back(service.submit(small_jobs[std::size_t(i)].cview(),
                                 small_cfg()).id);
  }
  service.resume();
  service.drain();

  // The four (40, 8)-bucket jobs ran as one dispatch of width 4 even though
  // a different-bucket job was interleaved in submission order.
  for (const auto id : {ids[0], ids[2], ids[3], ids[4]}) {
    EXPECT_EQ(service.info(id).batch_width, 4);
  }
  EXPECT_EQ(service.info(ids[1]).batch_width, 1);
  EXPECT_EQ(service.counter("svc.batch.count"), 2.0);
  EXPECT_EQ(service.counter("svc.batch.jobs"), 5.0);
}

TEST(Service, PoolReusesArenasAtZeroSteadyGrowth) {
  svc::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  svc::SolverService service(cfg);

  // 100 jobs over a mixed-size working set: two d buckets and one z bucket.
  auto d40 = test_matrix<double>(40, 41);
  auto d56 = test_matrix<double>(56, 42);
  auto z40 = test_matrix<std::complex<double>>(40, 43);

  std::vector<svc::JobId> ids;
  for (int i = 0; i < 100; ++i) {
    svc::Submission sub;
    switch (i % 3) {
      case 0:
        sub = service.submit(d40.cview(), small_cfg());
        break;
      case 1:
        sub = service.submit(d56.cview(), small_cfg(6, 4));
        break;
      default:
        sub = service.submit(z40.cview(), small_cfg());
        break;
    }
    ASSERT_TRUE(sub.ok());
    ids.push_back(sub.id);
  }
  service.drain();
  for (const auto id : ids) {
    EXPECT_EQ(service.poll(id), JobState::kDone);
  }
  // The whole run reuses a handful of arenas (2 workers x 3 buckets at
  // most) and no warm arena ever allocates: fleet-wide zero steady-state
  // allocation.
  EXPECT_LE(service.pool_entries(), 6);
  EXPECT_EQ(service.pool_steady_growth(), 0);
  EXPECT_EQ(service.counter("svc.pool.steady_arena_growth"), 0.0);
  EXPECT_EQ(service.counter("svc.jobs.completed"), 100.0);
  EXPECT_GT(service.counter("svc.pool.hits"),
            service.counter("svc.pool.misses"));
}

TEST(Service, SolveFailureIsTypedNotFatal) {
  svc::SolverService service;
  auto h = test_matrix<double>(32, 3);
  // A custom upper bound far below lambda_max makes the filter diverge;
  // the driver reports non-convergence instead of corrupting the service.
  auto cfg = small_cfg();
  cfg.use_custom_bounds = true;
  cfg.custom_b_sup = -100.0;
  cfg.custom_mu_1 = -101.0;
  cfg.custom_mu_ne = -100.5;
  const auto sub = service.submit(h.cview(), cfg);
  ASSERT_TRUE(sub.ok());
  const auto info = service.wait(sub.id);
  EXPECT_TRUE(info.state == JobState::kDone || info.state == JobState::kFailed);
  if (info.state == JobState::kDone) {
    EXPECT_FALSE(info.converged);
  } else {
    EXPECT_EQ(info.error, SvcError::kSolveFailed);
  }
  // The service stays healthy for the next job.
  const auto ok = service.submit(h.cview(), small_cfg());
  EXPECT_EQ(service.wait(ok.id).state, JobState::kDone);
}

TEST(Service, ShutdownCancelsQueuedJobs) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  svc::SolverService service(cfg);
  auto h = test_matrix<double>(40, 77);
  const auto sub = service.submit(h.cview(), small_cfg());
  ASSERT_TRUE(sub.ok());
  service.shutdown();
  const auto info = service.info(sub.id);
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_EQ(info.error, SvcError::kShutdown);
  service.shutdown();  // idempotent
}

}  // namespace
