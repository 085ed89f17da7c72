// Property sweep for the CHASE_GEMM_KERNEL policy engine (src/la/gemm.hpp,
// gemm_micro.hpp, hemm.hpp): every kernel policy must agree with the naive
// triple-loop reference on every shape class the engine special-cases —
// empty/degenerate dims, single vectors, one tile, tile-edge remainders and
// multi-panel blocks — for all op combinations and scalar types, and the
// Hermitian-aware hemm must match gemm on a Hermitian operand. The solver
// round-trip at the bottom checks the policy is honored end to end: filter +
// Rayleigh-Ritz produce the same eigenpairs under every policy.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "la/gemm.hpp"
#include "la/gemm_policy.hpp"
#include "la/heevd.hpp"
#include "la/hemm.hpp"
#include "la/norms.hpp"
#include "tests/testing.hpp"

namespace chase::la {
namespace {

using chase::testing::naive_gemm;
using chase::testing::random_hermitian;
using chase::testing::random_matrix;
using chase::testing::tol;

constexpr GemmKernel kPolicies[] = {GemmKernel::kNaive, GemmKernel::kMicro};
constexpr Op kOps[] = {Op::kNoTrans, Op::kTrans, Op::kConjTrans};

template <typename T>
class GemmKernelsTyped : public ::testing::Test {};
TYPED_TEST_SUITE(GemmKernelsTyped, chase::testing::ScalarTypes);

TYPED_TEST(GemmKernelsTyped, AllPoliciesMatchNaiveAcrossShapeSweep) {
  using T = TypeParam;
  using R = RealType<T>;
  // One value per shape class: empty, single, sub-tile, around one register
  // tile, and several tiles with a remainder.
  const Index dims[] = {0, 1, 5, 63, 64, 65, 192};
  int combo = 0;
  for (Index m : dims) {
    for (Index n : dims) {
      for (Index k : dims) {
        // Rotate through op and alpha/beta combinations deterministically so
        // the full sweep stays fast while every pairing is exercised many
        // times across the shape grid.
        const Op opa = kOps[combo % 3];
        const Op opb = kOps[(combo / 3) % 3];
        const T alpha = (combo % 4 == 0) ? T(1) : T(R(0.75));
        const T beta = (combo % 2 == 0) ? T(0) : T(R(-0.5));
        ++combo;
        auto a = (opa == Op::kNoTrans) ? random_matrix<T>(m, k, 100 + combo)
                                       : random_matrix<T>(k, m, 100 + combo);
        auto b = (opb == Op::kNoTrans) ? random_matrix<T>(k, n, 200 + combo)
                                       : random_matrix<T>(n, k, 200 + combo);
        auto ref = random_matrix<T>(m, n, 300 + combo);
        auto got = clone(ref.cview());
        naive_gemm(alpha, opa, a.cview(), opb, b.cview(), beta, ref.view());
        const R t = tol<T>(R(30)) * R(std::max<Index>(k, 1));
        for (GemmKernel kern : kPolicies) {
          ScopedGemmKernel scoped(kern);
          auto c = clone(got.cview());
          gemm(alpha, opa, a.cview(), opb, b.cview(), beta, c.view());
          EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), t)
              << gemm_kernel_name(kern) << " m=" << m << " n=" << n
              << " k=" << k << " opa=" << int(opa) << " opb=" << int(opb);
        }
      }
    }
  }
}

TYPED_TEST(GemmKernelsTyped, MicroBetaZeroOverwritesNaN) {
  using T = TypeParam;
  ScopedGemmKernel scoped(GemmKernel::kMicro);
  auto a = random_matrix<T>(65, 63, 1);
  auto b = random_matrix<T>(63, 65, 2);
  Matrix<T> c(65, 65), ref(65, 65);
  for (Index j = 0; j < 65; ++j) {
    for (Index i = 0; i < 65; ++i) {
      c(i, j) = T(std::numeric_limits<RealType<T>>::quiet_NaN());
    }
  }
  gemm(T(1), a.cview(), b.cview(), T(0), c.view());
  naive_gemm(T(1), Op::kNoTrans, a.cview(), Op::kNoTrans, b.cview(), T(0),
             ref.view());
  EXPECT_LE(max_abs_diff(c.cview(), ref.cview()),
            tol<T>(RealType<T>(4000)));
}

TYPED_TEST(GemmKernelsTyped, HemmMatchesGemmOnHermitianOperand) {
  using T = TypeParam;
  using R = RealType<T>;
  // hemm reads only the upper triangle under the micro policy; equality with
  // the full-storage gemm holds to rounding (not bitwise for complex types:
  // the compiler may contract the two inlined multiply-accumulate chains
  // differently), so the comparison is tolerance-based.
  const Index sizes[] = {1, 5, 64, 192, 200};
  const Index col_counts[] = {1, 7, 64, 481};
  for (Index n : sizes) {
    auto h = random_hermitian<T>(n, 40 + n);
    for (Index ncols : col_counts) {
      auto b = random_matrix<T>(n, ncols, 50 + ncols);
      const T alpha = T(R(1.25));
      const T beta = T(R(-0.5));
      auto ref = random_matrix<T>(n, ncols, 60);
      auto got = clone(ref.cview());
      {
        ScopedGemmKernel scoped(GemmKernel::kNaive);
        gemm(alpha, h.cview(), b.cview(), beta, ref.view());
      }
      for (GemmKernel kern : kPolicies) {
        ScopedGemmKernel scoped(kern);
        auto c = clone(got.cview());
        hemm(alpha, h.cview(), b.cview(), beta, c.view());
        EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), tol<T>(R(30)) * R(n))
            << gemm_kernel_name(kern) << " n=" << n << " ncols=" << ncols;
      }
    }
  }
}

TYPED_TEST(GemmKernelsTyped, HemmReadsOnlyUpperTriangleUnderMicro) {
  using T = TypeParam;
  using R = RealType<T>;
  // Scribble NaN over the strict lower triangle: the micro hemm must still
  // produce the correct product from the upper triangle alone.
  const Index n = 130;
  auto h = random_hermitian<T>(n, 7);
  auto ref_h = clone(h.cview());
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) {
      h(i, j) = T(std::numeric_limits<R>::quiet_NaN());
    }
  }
  auto b = random_matrix<T>(n, 33, 8);
  Matrix<T> c(n, 33), ref(n, 33);
  {
    ScopedGemmKernel scoped(GemmKernel::kMicro);
    hemm(T(1), h.cview(), b.cview(), T(0), c.view());
  }
  naive_gemm(T(1), Op::kNoTrans, ref_h.cview(), Op::kNoTrans, b.cview(), T(0),
             ref.view());
  EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), tol<T>(R(30)) * R(n));
}

TYPED_TEST(GemmKernelsTyped, GramMatchesExplicitProductUnderAllPolicies) {
  using T = TypeParam;
  using R = RealType<T>;
  auto x = random_matrix<T>(137, 61, 9);
  Matrix<T> ref(61, 61);
  naive_gemm(T(1), Op::kConjTrans, x.cview(), Op::kNoTrans, x.cview(), T(0),
             ref.view());
  for (GemmKernel kern : kPolicies) {
    ScopedGemmKernel scoped(kern);
    Matrix<T> c(61, 61);
    gram(x.cview(), c.view());
    EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), tol<T>(R(30)) * R(137))
        << gemm_kernel_name(kern);
    // The mirrored result must be exactly Hermitian (POTRF's precondition).
    for (Index j = 0; j < 61; ++j) {
      for (Index i = 0; i < j; ++i) {
        EXPECT_EQ(c(j, i), conjugate(c(i, j)));
      }
    }
  }
}

TEST(GemmPolicy, ParseAndNames) {
  EXPECT_EQ(parse_gemm_kernel("naive"), GemmKernel::kNaive);
  EXPECT_EQ(parse_gemm_kernel("micro"), GemmKernel::kMicro);
  EXPECT_FALSE(parse_gemm_kernel("blocked").has_value());  // retired
  EXPECT_FALSE(parse_gemm_kernel("turbo").has_value());
  EXPECT_FALSE(parse_gemm_kernel("").has_value());
  for (GemmKernel kern : kPolicies) {
    EXPECT_EQ(parse_gemm_kernel(gemm_kernel_name(kern)), kern);
  }
}

TEST(GemmPolicy, ScopedOverrideRestores) {
  const GemmKernel before = gemm_kernel();
  {
    ScopedGemmKernel scoped(GemmKernel::kNaive);
    EXPECT_EQ(gemm_kernel(), GemmKernel::kNaive);
    {
      ScopedGemmKernel inner(GemmKernel::kMicro);
      EXPECT_EQ(gemm_kernel(), GemmKernel::kMicro);
    }
    EXPECT_EQ(gemm_kernel(), GemmKernel::kNaive);
  }
  EXPECT_EQ(gemm_kernel(), before);
}

// End-to-end policy equivalence: the sequential Algorithm 2 driver (filter +
// CholeskyQR + Rayleigh-Ritz all riding the policy engine, with hemm on the
// 1x1 grid's diagonal rank) must produce the same eigenpairs under every
// kernel policy to solver tolerance.
template <typename T>
class GemmKernelsSolverTyped : public ::testing::Test {};
TYPED_TEST_SUITE(GemmKernelsSolverTyped, chase::testing::DoubleScalarTypes);

TYPED_TEST(GemmKernelsSolverTyped, SolverEigenpairsAgreeAcrossPolicies) {
  using T = TypeParam;
  const Index n = 120;
  auto eigs = gen::uniform_spectrum<double>(n, -2.0, 4.0);
  auto h = gen::hermitian_with_spectrum<T>(eigs, 3);

  core::ChaseConfig cfg;
  cfg.nev = 10;
  cfg.nex = 6;
  cfg.tol = 1e-10;

  std::vector<core::ChaseResult<T>> results;
  for (GemmKernel kern : kPolicies) {
    ScopedGemmKernel scoped(kern);
    results.push_back(core::solve_sequential<T>(h.cview(), cfg));
    ASSERT_TRUE(results.back().converged) << gemm_kernel_name(kern);
  }
  const auto& ref = results.front();
  for (std::size_t p = 1; p < results.size(); ++p) {
    const auto& r = results[p];
    for (Index j = 0; j < cfg.nev; ++j) {
      EXPECT_NEAR(r.eigenvalues[std::size_t(j)],
                  ref.eigenvalues[std::size_t(j)], 1e-8)
          << gemm_kernel_name(kPolicies[p]) << " pair " << j;
      // Eigenvectors agree up to phase: |<v_ref, v>| == 1. The spectrum is
      // uniform, so the wanted pairs are simple and this is well-defined.
      T ip(0);
      for (Index i = 0; i < n; ++i) {
        ip += conjugate(ref.eigenvectors(i, j)) * r.eigenvectors(i, j);
      }
      EXPECT_NEAR(abs_value(ip), 1.0, 1e-7)
          << gemm_kernel_name(kPolicies[p]) << " pair " << j;
    }
  }
}

}  // namespace
}  // namespace chase::la
