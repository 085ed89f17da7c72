// Property sweep for the blocked factorization engine (src/la/factor/):
// every public entry point (la/trsm.hpp, potrf.hpp, herk_upper, heevd.hpp,
// qr_blocked.hpp) must agree with the seed scalar oracle it replaced
// (factor::naive_*, called directly) on every shape class the panel logic
// special-cases — empty, single, one-panel (<= kFactorBlock, where the
// blocked kernels run the oracle), panel-edge remainders and multi-panel
// triangles — for all four scalar types. POTRF breakdowns must report the
// exact same info index as the oracle (the QR escalation ladder keys off
// it).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "la/gemm.hpp"
#include "la/heevd.hpp"
#include "la/norms.hpp"
#include "la/potrf.hpp"
#include "la/qr_blocked.hpp"
#include "la/trsm.hpp"
#include "tests/testing.hpp"

namespace chase::la {
namespace {

using chase::testing::naive_gemm;
using chase::testing::random_hermitian;
using chase::testing::random_matrix;
using chase::testing::tol;

// One value per shape class: empty, single, one panel minus/exact/plus one,
// and several panels with a remainder.
constexpr Index kTriangleDims[] = {0, 1, 63, 64, 65, 194};
constexpr Index kRhsDims[] = {1, 5, 97};

/// Well-conditioned random upper (or lower) triangular matrix: unit-scale
/// diagonal, off-diagonal damped by 1/n so solves do not amplify rounding
/// differences beyond the componentwise tolerance.
template <typename T>
Matrix<T> random_triangular(Index n, bool upper, int seed) {
  using R = RealType<T>;
  auto a = random_matrix<T>(n, n, seed);
  const R damp = R(1) / R(std::max<Index>(n, 1));
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      const bool keep = upper ? i < j : i > j;
      if (i == j) {
        a(i, j) = T(R(2) + real_part(a(i, j)));
      } else if (keep) {
        a(i, j) *= T(damp);
      } else {
        a(i, j) = T(0);
      }
    }
  }
  return a;
}

template <typename T>
class FactorKernelsTyped : public ::testing::Test {};
TYPED_TEST_SUITE(FactorKernelsTyped, chase::testing::ScalarTypes);

TYPED_TEST(FactorKernelsTyped, TrsmTrmmBlockedMatchesNaiveAcrossShapes) {
  using T = TypeParam;
  using R = RealType<T>;
  int seed = 0;
  for (Index n : kTriangleDims) {
    for (Index m : kRhsDims) {
      ++seed;
      const auto upper = random_triangular<T>(n, /*upper=*/true, 10 + seed);
      const auto lower = random_triangular<T>(n, /*upper=*/false, 20 + seed);
      const auto right = random_matrix<T>(m, n, 30 + seed);  // m x n, X R ops
      const auto left = random_matrix<T>(n, m, 40 + seed);   // n x m, L X ops
      const R t = tol<T>(R(100)) * R(std::max<Index>(n, 1));

      using Fn = void (*)(ConstMatrixView<T>, MatrixView<T>);
      struct Case {
        const char* name;
        Fn run[2];  // oracle, engine
        const Matrix<T>* tri;
        const Matrix<T>* rhs;
      };
      const Case cases[] = {
          {"trsm_right_upper",
           {&factor::naive_trsm_right_upper<T>, &trsm_right_upper<T>},
           &upper, &right},
          {"trsm_left_lower",
           {&factor::naive_trsm_left_lower<T>, &trsm_left_lower<T>},
           &lower, &left},
          {"trsm_left_upper_conj",
           {&factor::naive_trsm_left_upper_conj<T>, &trsm_left_upper_conj<T>},
           &upper, &left},
          {"trmm_right_upper",
           {&factor::naive_trmm_right_upper<T>, &trmm_right_upper<T>},
           &upper, &right},
          {"trmm_left_upper",
           {&factor::naive_trmm_left_upper<T>, &trmm_left_upper<T>},
           &upper, &left},
          {"trmm_left_upper_conj",
           {&factor::naive_trmm_left_upper_conj<T>, &trmm_left_upper_conj<T>},
           &upper, &left},
      };
      for (const Case& c : cases) {
        Matrix<T> results[2];
        for (int p = 0; p < 2; ++p) {
          results[p] = clone(c.rhs->cview());
          c.run[p](c.tri->cview(), results[p].view());
        }
        EXPECT_LE(max_abs_diff(results[0].cview(), results[1].cview()), t)
            << c.name << " n=" << n << " m=" << m;
      }
    }
  }
}

TYPED_TEST(FactorKernelsTyped, HerkUpperBlockedMatchesNaiveAcrossShapes) {
  using T = TypeParam;
  using R = RealType<T>;
  int seed = 0;
  for (Index n : kTriangleDims) {
    for (Index m : {Index(1), Index(37), Index(130)}) {
      ++seed;
      const auto x = random_matrix<T>(m, n, 50 + seed);
      const T alpha = (seed % 2 == 0) ? T(1) : T(R(-0.75));
      const T beta = (seed % 3 == 0) ? T(0) : T(R(0.5));
      const auto c0 = random_matrix<T>(n, n, 60 + seed);
      Matrix<T> results[2] = {clone(c0.cview()), clone(c0.cview())};
      factor::naive_herk_upper(alpha, x.cview(), beta, results[0].view());
      herk_upper(alpha, x.cview(), beta, results[1].view());
      EXPECT_LE(max_abs_diff(results[0].cview(), results[1].cview()),
                tol<T>(R(100)) * R(std::max<Index>(m, 1)))
          << "n=" << n << " m=" << m;
      // Both kernels must leave the strict lower triangle untouched — the
      // contract that lets CholeskyQR skip the Hermitian mirror entirely.
      for (int p = 0; p < 2; ++p) {
        for (Index j = 0; j < n; ++j) {
          for (Index i = j + 1; i < n; ++i) {
            EXPECT_EQ(results[p](i, j), c0(i, j))
                << (p == 0 ? "oracle" : "engine") << " n=" << n;
          }
        }
      }
    }
  }
}

TYPED_TEST(FactorKernelsTyped, PotrfBlockedMatchesNaiveOnPosDef) {
  using T = TypeParam;
  using R = RealType<T>;
  for (Index n : kTriangleDims) {
    // Positive definite by construction: Gram of a tall random block plus a
    // diagonal boost.
    const auto x = random_matrix<T>(n + 20, n, 70 + int(n));
    Matrix<T> a0(n, n);
    naive_gemm(T(1), Op::kConjTrans, x.cview(), Op::kNoTrans, x.cview(), T(0),
               a0.view());
    for (Index j = 0; j < n; ++j) a0(j, j) += T(R(n + 1));
    Matrix<T> results[2] = {clone(a0.cview()), clone(a0.cview())};
    const int infos[2] = {factor::naive_potrf_upper(results[0].view(), R(0)),
                          potrf_upper(results[1].view())};
    EXPECT_EQ(infos[0], 0) << "n=" << n;
    EXPECT_EQ(infos[1], 0) << "n=" << n;
    EXPECT_LE(max_abs_diff(results[0].cview(), results[1].cview()),
              tol<T>(R(100)) * R(std::max<Index>(n, 1)))
        << "n=" << n;
    // Strict lower triangle exactly zeroed by both kernels.
    for (int p = 0; p < 2; ++p) {
      for (Index j = 0; j < n; ++j) {
        for (Index i = j + 1; i < n; ++i) {
          EXPECT_EQ(results[p](i, j), T(0))
              << (p == 0 ? "oracle" : "engine") << " n=" << n;
        }
      }
    }
  }
}

TYPED_TEST(FactorKernelsTyped, PotrfInfoIndexAgreesExactly) {
  using T = TypeParam;
  using R = RealType<T>;
  // Indefinite diagonal: breakdown at a first-panel index and at an index
  // deep inside a later panel (info > kFactorBlock exercises the blocked
  // kernel's j0 offset arithmetic).
  for (Index bad : {Index(2), Index(100)}) {
    const Index n = 150;
    Matrix<T> a0(n, n);
    for (Index j = 0; j < n; ++j) a0(j, j) = T(1);
    a0(bad, bad) = T(-1);
    auto a = clone(a0.cview());
    auto b = clone(a0.cview());
    const int infos[2] = {factor::naive_potrf_upper(a.view(), R(0)),
                          potrf_upper(b.view())};
    EXPECT_EQ(infos[0], int(bad) + 1);
    EXPECT_EQ(infos[1], infos[0]);
  }
}

TYPED_TEST(FactorKernelsTyped, PotrfPivotFloorBreakdownAgrees) {
  using T = TypeParam;
  using R = RealType<T>;
  // Gram matrix of a rank-deficient block (duplicated column): with the
  // CholeskyQR relative pivot floor the oracle and the engine must report a
  // breakdown, at the same index.
  const Index n = 90;
  auto x = random_matrix<T>(n + 40, n, 80);
  for (Index i = 0; i < x.rows(); ++i) x(i, n - 1) = x(i, 70);
  Matrix<T> a0(n, n);
  naive_gemm(T(1), Op::kConjTrans, x.cview(), Op::kNoTrans, x.cview(), T(0),
             a0.view());
  const R rel_tol = R(n) * unit_roundoff<T>();
  auto a = clone(a0.cview());
  auto b = clone(a0.cview());
  const int infos[2] = {factor::naive_potrf_upper(a.view(), rel_tol),
                        potrf_upper(b.view(), rel_tol)};
  EXPECT_GT(infos[0], 0);
  EXPECT_EQ(infos[1], infos[0]);
}

TYPED_TEST(FactorKernelsTyped, HetrdReconstructsUnderBothPolicies) {
  using T = TypeParam;
  using R = RealType<T>;
  // The oracle (the seed reduction and Q formation, called directly) against
  // the engine (hetrd_lower). Order 1 has no reflector: both sides take
  // hetrd_lower's trivial path.
  for (Index n : {Index(1), Index(5), Index(64), Index(65), Index(150)}) {
    const auto a0 = random_hermitian<T>(n, 90 + int(n));
    std::vector<R> ds[2], es[2];
    Matrix<T> qs[2] = {Matrix<T>(n, n), Matrix<T>(n, n)};
    if (n == 1) {
      auto a = clone(a0.cview());
      hetrd_lower(a.view(), ds[0], es[0], qs[0].view());
    } else {
      auto a = clone(a0.cview());
      ds[0].assign(std::size_t(n), R(0));
      es[0].assign(std::size_t(n - 1), R(0));
      std::vector<T> taus(std::size_t(n - 1), T(0));
      factor::naive_hetrd_reduce(a.view(), ds[0], es[0], taus);
      factor::naive_hetrd_form_q(a.cview(), taus, qs[0].view());
    }
    {
      auto a = clone(a0.cview());
      hetrd_lower(a.view(), ds[1], es[1], qs[1].view());
    }
    const R t = tol<T>(R(100)) * R(n);
    // The tridiagonal data agrees between the two. Both reductions are
    // backward stable but sum trailing updates in different orders, so the
    // entrywise gap is bounded by c * n * u * ||A|| with ||A|| ~ sqrt(n) for
    // this ensemble — hence the extra sqrt(n) over the reconstruction bound.
    const R td = t * std::sqrt(R(n));
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(ds[0][std::size_t(i)], ds[1][std::size_t(i)], td)
          << "n=" << n << " i=" << i;
    }
    for (Index i = 0; i + 1 < n; ++i) {
      EXPECT_NEAR(es[0][std::size_t(i)], es[1][std::size_t(i)], td)
          << "n=" << n << " i=" << i;
    }
    // ...and each (Q, T) reconstructs A: Q orthonormal and Q T Q^H = A.
    for (int p = 0; p < 2; ++p) {
      const char* name = p == 0 ? "oracle" : "engine";
      EXPECT_LE(orthogonality_error(qs[p].cview()), t)
          << name << " n=" << n;
      Matrix<T> tri(n, n);
      for (Index i = 0; i < n; ++i) {
        tri(i, i) = T(ds[p][std::size_t(i)]);
        if (i + 1 < n) {
          tri(i + 1, i) = T(es[p][std::size_t(i)]);
          tri(i, i + 1) = T(es[p][std::size_t(i)]);
        }
      }
      Matrix<T> qt(n, n), qtqh(n, n);
      naive_gemm(T(1), Op::kNoTrans, qs[p].cview(), Op::kNoTrans, tri.cview(),
                 T(0), qt.view());
      naive_gemm(T(1), Op::kNoTrans, qt.cview(), Op::kConjTrans,
                 qs[p].cview(), T(0), qtqh.view());
      EXPECT_LE(max_abs_diff(qtqh.cview(), a0.cview()), t)
          << name << " n=" << n;
    }
  }
}

TYPED_TEST(FactorKernelsTyped, BlockedQrOrthonormalizesUnderBothPolicies) {
  using T = TypeParam;
  using R = RealType<T>;
  // householder_orthonormalize_blocked rides larft/larfb on the blocked
  // TRMM and GEMM; like the unblocked oracle it replaced, its Q must be
  // orthonormal and span X.
  const Index m = 200, n = 70;
  const auto x0 = random_matrix<T>(m, n, 110);
  for (const bool blocked : {false, true}) {
    auto q = clone(x0.cview());
    if (blocked) {
      householder_orthonormalize_blocked(q.view());
    } else {
      householder_orthonormalize(q.view());
    }
    const char* name = blocked ? "blocked" : "unblocked";
    const R t = tol<T>(R(100)) * R(m);
    EXPECT_LE(orthogonality_error(q.cview()), t) << name;
    // Span check: X = Q (Q^H X) to rounding.
    Matrix<T> r(n, n), qr(m, n);
    naive_gemm(T(1), Op::kConjTrans, q.cview(), Op::kNoTrans, x0.cview(),
               T(0), r.view());
    naive_gemm(T(1), Op::kNoTrans, q.cview(), Op::kNoTrans, r.cview(), T(0),
               qr.view());
    EXPECT_LE(max_abs_diff(qr.cview(), x0.cview()), t) << name;
  }
}

}  // namespace
}  // namespace chase::la
