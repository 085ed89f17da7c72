// The C interface, exercised the way a Fortran/C electronic-structure code
// would call it: raw column-major buffers, interleaved complex doubles.
#include "capi/chase_c.h"

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "gen/spectrum.hpp"
#include "la/norms.hpp"

namespace {

using namespace chase;

TEST(CApi, DefaultParams) {
  chase_params p;
  chase_default_params(100, &p);
  EXPECT_EQ(p.nev, 100);
  EXPECT_EQ(p.nex, 25);
  EXPECT_DOUBLE_EQ(p.tol, 1e-10);
  EXPECT_EQ(p.optimize_degree, 1);
  chase_default_params(8, &p);
  EXPECT_EQ(p.nex, 4);  // floor
}

TEST(CApi, ZheevLowestMatchesPrescribedSpectrum) {
  const long n = 120;
  auto eigs = gen::uniform_spectrum<double>(n, -1.0, 3.0);
  auto h = gen::hermitian_with_spectrum<std::complex<double>>(eigs, 17);

  chase_params p;
  chase_default_params(10, &p);
  std::vector<double> w(10);
  std::vector<std::complex<double>> z(std::size_t(n) * 10);
  const int rc = chase_zheev_lowest(
      reinterpret_cast<const double*>(h.data()), n, &p, w.data(),
      reinterpret_cast<double*>(z.data()));
  ASSERT_EQ(rc, CHASE_SUCCESS);
  for (long j = 0; j < 10; ++j) {
    EXPECT_NEAR(w[std::size_t(j)], eigs[std::size_t(j)], 1e-7);
  }
  // Eigenvectors satisfy H v = w v.
  for (long k = 0; k < 10; ++k) {
    double err = 0;
    for (long i = 0; i < n; ++i) {
      std::complex<double> acc = 0;
      for (long l = 0; l < n; ++l) acc += h(i, l) * z[std::size_t(k * n + l)];
      acc -= w[std::size_t(k)] * z[std::size_t(k * n + i)];
      err += std::norm(acc);
    }
    EXPECT_LE(std::sqrt(err), 1e-7);
  }
}

TEST(CApi, DsyevLowestRealPath) {
  const long n = 90;
  auto eigs = gen::uniform_spectrum<double>(n, 0.0, 5.0);
  auto h = gen::hermitian_with_spectrum<double>(eigs, 19);
  chase_params p;
  chase_default_params(6, &p);
  std::vector<double> w(6);
  const int rc = chase_dsyev_lowest(h.data(), n, &p, w.data(), nullptr);
  ASSERT_EQ(rc, CHASE_SUCCESS);
  for (long j = 0; j < 6; ++j) {
    EXPECT_NEAR(w[std::size_t(j)], eigs[std::size_t(j)], 1e-7);
  }
}

TEST(CApi, InvalidArguments) {
  chase_params p;
  chase_default_params(5, &p);
  double w[5];
  EXPECT_EQ(chase_dsyev_lowest(nullptr, 10, &p, w, nullptr),
            CHASE_INVALID_ARGUMENT);
  std::vector<double> h(100, 0.0);
  EXPECT_EQ(chase_dsyev_lowest(h.data(), -3, &p, w, nullptr),
            CHASE_INVALID_ARGUMENT);
  p.nev = 0;
  EXPECT_EQ(chase_dsyev_lowest(h.data(), 10, &p, w, nullptr),
            CHASE_INVALID_ARGUMENT);
  p.nev = 9;
  p.nex = 9;  // subspace exceeds n
  EXPECT_EQ(chase_dsyev_lowest(h.data(), 10, &p, w, nullptr),
            CHASE_INVALID_ARGUMENT);
}

TEST(CApi, NotConvergedReportsApproximation) {
  const long n = 60;
  auto h = gen::hermitian_with_spectrum<double>(
      gen::uniform_spectrum<double>(n, 0.0, 1.0), 21);
  chase_params p;
  chase_default_params(5, &p);
  p.tol = 1e-30;
  p.max_iterations = 2;
  std::vector<double> w(5);
  EXPECT_EQ(chase_dsyev_lowest(h.data(), n, &p, w.data(), nullptr),
            CHASE_NOT_CONVERGED);
  EXPECT_NEAR(w[0], 0.0, 1e-3);  // still a useful approximation
}

}  // namespace
