// Five-loop BLIS-style GEMM engine: register-tiled micro-kernel, micro-panel
// packing, and the per-thread packing-buffer pool.
//
// Loop structure (outermost to innermost), following the micro-kernel
// discipline of BLIS/DBCSR-class libraries:
//
//   jc over n in nc   — B/C column panels
//   pc over k in kc   — k panels; op(B) panel packed into kc x nr micro-panels
//   ic over m in mc   — op(A) panel packed into mr x kc micro-panels (L2)
//   jr over nc in nr  ┐ macro-kernel: every (mr x nr) register tile of C is
//   ir over mc in mr  ┘ produced by one micro-kernel call
//
// The micro-kernel keeps the full mr x nr tile of C in registers across the
// whole kc loop (one load/store of the tile per k panel instead of the
// rank-1-update kernel's one reload per two k steps), with A and B streamed
// from L1-resident packed micro-panels. Remainder tiles are handled by
// zero-padding the packed panels to full mr/nr width and masking the store,
// so the hot loop is branch-free for every shape.
//
// beta is folded into the store of the *first* k panel (pc == 0): the tile
// store computes C = beta C + acc there and C += acc afterwards, which
// removes the separate full read-modify-write sweep over C that a
// pre-scaling pass costs.
#pragma once

#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "la/matrix.hpp"
#include "la/parallel.hpp"

namespace chase::la {

/// BLAS-style operation applied to an input operand.
enum class Op { kNoTrans, kTrans, kConjTrans };

/// Rows of op(A) for an m x n view A.
template <typename T>
inline Index op_rows(Op op, ConstMatrixView<T> a) {
  return op == Op::kNoTrans ? a.rows() : a.cols();
}

/// Columns of op(A) for an m x n view A.
template <typename T>
inline Index op_cols(Op op, ConstMatrixView<T> a) {
  return op == Op::kNoTrans ? a.cols() : a.rows();
}

namespace detail {

/// Element (i, j) of op(A).
template <typename T>
inline T op_elem(Op op, ConstMatrixView<T> a, Index i, Index j) {
  switch (op) {
    case Op::kNoTrans:
      return a(i, j);
    case Op::kTrans:
      return a(j, i);
    case Op::kConjTrans:
    default:
      return conjugate(a(j, i));
  }
}

/// Register-tile and cache-block sizes per scalar type.
///
/// mr x nr is sized so the C accumulator tile plus one A column and one B row
/// fit the architectural vector registers (the -march=native build
/// autovectorizes the unit-stride mr direction); kc keeps one mr x kc A
/// micro-panel plus one kc x nr B micro-panel L1-resident; mc x kc is the
/// L2-resident packed A panel; nc bounds the packed B panel.
template <typename T>
struct MicroTile;

template <>
struct MicroTile<float> {
  static constexpr Index mr = 32, nr = 6, mc = 256, kc = 256, nc = 480;
};
template <>
struct MicroTile<double> {
  static constexpr Index mr = 16, nr = 6, mc = 256, kc = 256, nc = 480;
};
template <>
struct MicroTile<std::complex<float>> {
  static constexpr Index mr = 16, nr = 6, mc = 192, kc = 224, nc = 480;
};
template <>
struct MicroTile<std::complex<double>> {
  static constexpr Index mr = 8, nr = 6, mc = 192, kc = 192, nc = 384;
};

inline constexpr Index round_up(Index v, Index unit) {
  return ((v + unit - 1) / unit) * unit;
}

/// Ask the kernel to back a buffer with transparent huge pages. A packed
/// Hermitian operand (hemm.hpp) spans many megabytes and every hemm call
/// walks it front to back; on 4 KiB pages that walk turns into a dTLB miss
/// every page, which is measurable once the micro-kernel runs near FMA peak.
inline void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::size_t kHuge = 2u << 20;
  auto lo = (reinterpret_cast<std::uintptr_t>(p) + kHuge - 1) & ~(kHuge - 1);
  auto hi = (reinterpret_cast<std::uintptr_t>(p) + bytes) & ~(kHuge - 1);
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Per-thread (per-SPMD-rank) reusable packing buffers. The filter's inner
/// HEMM loop calls gemm once per recurrence step per column block; growing
/// these monotonically means it stops allocating after the first call.
template <typename T>
struct PackPool {
  std::vector<T> a, b;

  T* buf_a(std::size_t n) {
    if (a.size() < n) {
      a.resize(n);
      advise_huge_pages(a.data(), a.size() * sizeof(T));
    }
    return a.data();
  }
  T* buf_b(std::size_t n) {
    if (b.size() < n) {
      b.resize(n);
      advise_huge_pages(b.data(), b.size() * sizeof(T));
    }
    return b.data();
  }
};

template <typename T>
inline PackPool<T>& pack_pool() {
  thread_local PackPool<T> pool;
  return pool;
}

template <typename T>
inline constexpr bool kIsComplexScalar = false;
template <typename U>
inline constexpr bool kIsComplexScalar<std::complex<U>> = true;

/// Width in bytes of the micro-kernel's accumulator vectors. 64 maps to one
/// zmm register on AVX-512 hosts (-march=native builds); on narrower ISAs the
/// compiler legalizes each operation into register pairs, which costs nothing
/// relative to writing the pairs out by hand.
inline constexpr int kVecBytes = 64;

/// Complex packed-A micro-panels use a *planar* layout — per k step the MR
/// real parts then the MR imaginary parts — whenever one plane is a whole
/// number of accumulator vectors. The planar form lets the complex
/// micro-kernel run the real/imag cross terms as four plain vector FMAs per
/// register row with no lane shuffles; real types always pack interleaved
/// (trivially).
template <typename T, Index MR>
inline constexpr bool kPlanarPackA =
    kIsComplexScalar<T> && (MR * sizeof(T) / 2) % kVecBytes == 0;

/// Store element (i, l) of one packed mr x kc A micro-panel, honoring the
/// planar layout for complex types. Every producer of packed A panels
/// (gemm's pack_a_micro, hemm's diagonal densifier) must write through this.
template <typename T, Index MR>
inline void packed_a_store(T* panel, Index l, Index i, T v) {
  if constexpr (kPlanarPackA<T, MR>) {
    auto* d = reinterpret_cast<typename T::value_type*>(panel) + l * 2 * MR;
    d[i] = v.real();
    d[MR + i] = v.imag();
  } else {
    panel[l * MR + i] = v;
  }
}

/// Element (i, l) of one packed A micro-panel: the inverse of packed_a_store.
template <typename T, Index MR>
inline T packed_a_load(const T* panel, Index l, Index i) {
  if constexpr (kPlanarPackA<T, MR>) {
    const auto* d =
        reinterpret_cast<const typename T::value_type*>(panel) + l * 2 * MR;
    return T(d[i], d[MR + i]);
  } else {
    return panel[l * MR + i];
  }
}

/// Pack block [r0, r0+rows) x [c0, c0+kc) of op(A) into mr-row micro-panels:
/// panel p holds rows [p*mr, (p+1)*mr) starting at p*mr*kc, element (i, l)
/// placed by packed_a_store (interleaved for real types, planar for complex),
/// rows beyond `rows` zero-padded so the micro-kernel never branches on m.
template <typename T, Index MR>
inline void pack_a_micro(Op op, ConstMatrixView<T> a, Index r0, Index c0,
                         Index rows, Index kc, T* buf) {
  for (Index p0 = 0; p0 < rows; p0 += MR) {
    const Index pr = std::min<Index>(MR, rows - p0);
    T* dst = buf + p0 * kc;
    if (op == Op::kNoTrans) {
      for (Index l = 0; l < kc; ++l) {
        const T* src = a.col(c0 + l) + r0 + p0;
        for (Index i = 0; i < pr; ++i) packed_a_store<T, MR>(dst, l, i, src[i]);
        for (Index i = pr; i < MR; ++i) packed_a_store<T, MR>(dst, l, i, T(0));
      }
    } else {
      // op(A)(i, l) = a(c0+l, r0+i) (conjugated for kConjTrans): for a fixed
      // i the l loop walks down one column of A, so keep it innermost — but
      // tiled, so the strided destination window (one line per k step) stays
      // L1-resident while the i loop revisits it.
      const bool conj = op == Op::kConjTrans;
      constexpr Index kLTile = 64;
      for (Index l0 = 0; l0 < kc; l0 += kLTile) {
        const Index lt = std::min<Index>(kLTile, kc - l0);
        for (Index i = 0; i < pr; ++i) {
          const T* src = &a(c0 + l0, r0 + p0 + i);
          for (Index l = 0; l < lt; ++l) {
            packed_a_store<T, MR>(dst, l0 + l, i,
                                  conj ? conjugate(src[l]) : src[l]);
          }
        }
        for (Index i = pr; i < MR; ++i) {
          for (Index l = 0; l < lt; ++l) {
            packed_a_store<T, MR>(dst, l0 + l, i, T(0));
          }
        }
      }
    }
  }
}

/// Pack block [r0, r0+kc) x [c0, c0+cols) of op(B), scaled by alpha, into
/// nr-column micro-panels: panel q holds columns [q*nr, (q+1)*nr), element
/// (l, j) at q*nr*kc + l*nr + j, columns beyond `cols` zero-padded.
template <typename T, Index NR>
inline void pack_b_micro(Op op, ConstMatrixView<T> b, Index r0, Index c0,
                         Index kc, Index cols, T alpha, T* buf) {
  for (Index q0 = 0; q0 < cols; q0 += NR) {
    const Index qn = std::min<Index>(NR, cols - q0);
    T* dst = buf + q0 * kc;
    if (op == Op::kNoTrans) {
      for (Index j = 0; j < qn; ++j) {
        const T* src = b.col(c0 + q0 + j) + r0;
        T* d = dst + j;
        for (Index l = 0; l < kc; ++l) d[l * NR] = alpha * src[l];
      }
    } else {
      const bool conj = op == Op::kConjTrans;
      // op(B)(l, j) = b(c0+j, r0+l): for a fixed l the j loop walks down one
      // column of B; keep the contiguous direction innermost per column.
      for (Index j = 0; j < qn; ++j) {
        const T* src = &b(c0 + q0 + j, r0);
        const Index ld = b.ld();
        T* d = dst + j;
        for (Index l = 0; l < kc; ++l) {
          const T v = src[l * ld];
          d[l * NR] = alpha * (conj ? conjugate(v) : v);
        }
      }
    }
    for (Index j = qn; j < NR; ++j) {
      T* d = dst + j;
      for (Index l = 0; l < kc; ++l) d[l * NR] = T(0);
    }
  }
}

/// The register-tiled micro-kernel: acc(mr x nr) = sum_l Ap(:, l) Bp(l, :)
/// over one packed k panel, then one store to C.
///
/// `first_panel` selects the store mode: the pc == 0 panel writes
/// C = beta C + acc (folding the beta pre-scale into work that touches the
/// tile anyway), later panels accumulate C += acc. Edge tiles (mrem < MR or
/// nrem < NR) compute the full padded tile — the padding rows/columns are
/// zero — and mask only the store.
/// Rank-kc accumulation acc(MR x NR) = sum_l Ap(:, l) Bp(l, :) over packed
/// panels, written with GCC vector extensions: the accumulator tile is held
/// in explicit kVecBytes-wide vector variables, which pins it to
/// architectural registers (the scalar formulation trips a pathology —
/// the compiler spills the tile into chains of register-register copies and
/// the kernel runs at memory speed instead of FMA speed).
///
/// Complex types consume the planar packed-A layout (see kPlanarPackA): with
/// the real and imaginary planes in separate vectors, the complex
/// multiply-accumulate acc += a b is four shuffle-free vector FMAs
///   accr += ar br;  accr -= ai bi;  acci += ar bi;  acci += ai br,
/// the same FMA utilization as the real kernel. B panels stay interleaved —
/// only the two scalars b_r, b_i are broadcast per register column.
template <typename T, Index MR, Index NR>
inline void micro_accumulate(Index kc, const T* __restrict ap,
                             const T* __restrict bp, T* __restrict acc) {
  if constexpr (kPlanarPackA<T, MR>) {
    using R = typename T::value_type;
    constexpr int VB = kVecBytes;
    constexpr int VL = VB / int(sizeof(R));
    constexpr int RU = int(MR) / VL;  // vectors per plane
    typedef R V __attribute__((vector_size(VB)));
    const R* apr = reinterpret_cast<const R*>(ap);
    const R* bpr = reinterpret_cast<const R*>(bp);
    V accr[RU][NR], acci[RU][NR];
    for (int r = 0; r < RU; ++r)
      for (int j = 0; j < int(NR); ++j) {
        accr[r][j] = V{};
        acci[r][j] = V{};
      }
    for (Index l = 0; l < kc; ++l) {
      const R* a = apr + l * 2 * MR;
      const R* b = bpr + l * 2 * NR;
      V ar[RU], ai[RU];
      for (int r = 0; r < RU; ++r) {
        std::memcpy(&ar[r], a + r * VL, VB);
        std::memcpy(&ai[r], a + MR + r * VL, VB);
      }
      for (int j = 0; j < int(NR); ++j) {
        const R br = b[2 * j], bi = b[2 * j + 1];
        for (int r = 0; r < RU; ++r) {
          accr[r][j] += ar[r] * br;
          accr[r][j] -= ai[r] * bi;
          acci[r][j] += ar[r] * bi;
          acci[r][j] += ai[r] * br;
        }
      }
    }
    R* out = reinterpret_cast<R*>(acc);
    for (int j = 0; j < int(NR); ++j)
      for (int r = 0; r < RU; ++r)
        for (int v = 0; v < VL; ++v) {
          out[(j * MR + r * VL + v) * 2] = accr[r][j][v];
          out[(j * MR + r * VL + v) * 2 + 1] = acci[r][j][v];
        }
  } else if constexpr (!kIsComplexScalar<T> &&
                       (MR * sizeof(T)) % kVecBytes == 0) {
    constexpr int VB = kVecBytes;  // MR spans a whole number of vectors
    constexpr int VL = VB / int(sizeof(T));
    constexpr int RU = int(MR) / VL;
    typedef T V __attribute__((vector_size(VB)));
    V vacc[RU][NR];
    for (int r = 0; r < RU; ++r)
      for (int j = 0; j < int(NR); ++j) vacc[r][j] = V{};
    for (Index l = 0; l < kc; ++l) {
      const T* a = ap + l * MR;
      const T* b = bp + l * NR;
      V av[RU];
      for (int r = 0; r < RU; ++r) std::memcpy(&av[r], a + r * VL, VB);
      for (int j = 0; j < int(NR); ++j) {
        const T bj = b[j];
        for (int r = 0; r < RU; ++r) vacc[r][j] += av[r] * bj;
      }
    }
    for (int j = 0; j < int(NR); ++j)
      for (int r = 0; r < RU; ++r)
        std::memcpy(acc + j * MR + r * VL, &vacc[r][j], VB);
  } else {
    for (Index l = 0; l < kc; ++l) {
      const T* a = ap + l * MR;
      const T* b = bp + l * NR;
      for (Index j = 0; j < NR; ++j) {
        const T bj = b[j];
        T* accj = acc + j * MR;
        for (Index i = 0; i < MR; ++i) accj[i] += a[i] * bj;
      }
    }
  }
}

template <typename T, Index MR, Index NR>
inline void micro_kernel(Index kc, const T* ap, const T* bp, T* c, Index ldc,
                         Index mrem, Index nrem, T beta, bool first_panel) {
  T acc[MR * NR] = {};
  micro_accumulate<T, MR, NR>(kc, ap, bp, acc);
  if (mrem == MR && nrem == NR) {
    if (!first_panel) {
      for (Index j = 0; j < NR; ++j) {
        T* cj = c + j * ldc;
        const T* accj = acc + j * MR;
        for (Index i = 0; i < MR; ++i) cj[i] += accj[i];
      }
    } else if (beta == T(0)) {
      for (Index j = 0; j < NR; ++j) {
        T* cj = c + j * ldc;
        const T* accj = acc + j * MR;
        for (Index i = 0; i < MR; ++i) cj[i] = accj[i];
      }
    } else {
      for (Index j = 0; j < NR; ++j) {
        T* cj = c + j * ldc;
        const T* accj = acc + j * MR;
        for (Index i = 0; i < MR; ++i) cj[i] = beta * cj[i] + accj[i];
      }
    }
    return;
  }
  for (Index j = 0; j < nrem; ++j) {
    T* cj = c + j * ldc;
    const T* accj = acc + j * MR;
    if (!first_panel) {
      for (Index i = 0; i < mrem; ++i) cj[i] += accj[i];
    } else if (beta == T(0)) {
      for (Index i = 0; i < mrem; ++i) cj[i] = accj[i];
    } else {
      for (Index i = 0; i < mrem; ++i) cj[i] = beta * cj[i] + accj[i];
    }
  }
}

/// Macro-kernel: sweep the packed mc x kc A panel against the packed
/// kc x nc B panel, one micro-kernel call per register tile of C.
template <typename T>
inline void macro_kernel(Index mc, Index nc, Index kc, const T* pa,
                         const T* pb, T* c, Index ldc, T beta,
                         bool first_panel) {
  constexpr Index MR = MicroTile<T>::mr;
  constexpr Index NR = MicroTile<T>::nr;
  for (Index jr = 0; jr < nc; jr += NR) {
    const Index nrem = std::min<Index>(NR, nc - jr);
    const T* bpanel = pb + jr * kc;
    for (Index ir = 0; ir < mc; ir += MR) {
      const Index mrem = std::min<Index>(MR, mc - ir);
      micro_kernel<T, MR, NR>(kc, pa + ir * kc, bpanel, c + ir + jr * ldc,
                              ldc, mrem, nrem, beta, first_panel);
    }
  }
}

/// Five-loop driver. Preconditions (enforced by the gemm() dispatcher):
/// m, n, k > 0 and alpha != 0; beta is applied by the first k panel.
///
/// The caller packs each (jc, pc) panel of op(B) once; its mc row chunks are
/// the parallel units (la/parallel.hpp), each packing its own op(A) chunk
/// into the running thread's pool (grown only to the chunk it packs), so
/// every C element sees the serial kernel's exact operation sequence
/// whichever thread computes it.
template <typename T>
void gemm_micro(T alpha, Op opa, ConstMatrixView<T> a, Op opb,
                ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  using Tile = MicroTile<T>;
  const Index m = c.rows();
  const Index n = c.cols();
  const Index k = op_cols(opa, a);
  const Index chunks = (m + Tile::mc - 1) / Tile::mc;

  T* pb = pack_pool<T>().buf_b(std::size_t(round_up(Tile::nc, Tile::nr)) *
                               Tile::kc);

  for (Index jc = 0; jc < n; jc += Tile::nc) {
    const Index nc = std::min<Index>(Tile::nc, n - jc);
    for (Index pc = 0; pc < k; pc += Tile::kc) {
      const Index kc = std::min<Index>(Tile::kc, k - pc);
      pack_b_micro<T, Tile::nr>(opb, b, pc, jc, kc, nc, alpha, pb);
      parallel_units(chunks, [&](Index u) {
        const Index ic = u * Tile::mc;
        const Index mc = std::min<Index>(Tile::mc, m - ic);
        T* pa = pack_pool<T>().buf_a(std::size_t(round_up(mc, Tile::mr)) * kc);
        pack_a_micro<T, Tile::mr>(opa, a, ic, pc, mc, kc, pa);
        macro_kernel<T>(mc, nc, kc, pa, pb, c.data() + ic + jc * c.ld(),
                        c.ld(), beta, /*first_panel=*/pc == 0);
      });
    }
  }
}

}  // namespace detail

}  // namespace chase::la
