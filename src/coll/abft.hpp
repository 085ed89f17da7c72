// ABFT sentinels on the hot collective path (Huang-Abraham style
// algorithm-based fault tolerance, the checksum technique DBCSR-class
// distributed GEMM stacks run inline on their dominant kernel).
//
// Two layers, both off by default (CHASE_ABFT=1 arms them):
//
//  * checked_all_reduce — a Fletcher-checksummed variant of the coll
//    engine's allreduce. After the reduction every rank hashes its result
//    buffer (Fletcher-64, one cheap pass) and the team compares hashes over
//    the trusted control-plane agree() primitive; finiteness of the result
//    is folded into the same verification word. Detection of either
//    `p2p.corrupt` (ranks diverge -> hash mismatch) or `allreduce.corrupt`
//    (collective NaN from finite inputs) triggers a *localized replay*: the
//    saved input block is restored and the reduction re-runs — instead of
//    the corruption propagating into the basis and costing a filter-guard
//    re-randomization (or worse, a silently wrong eigenpair). Bounded
//    replays; persistent corruption poisons the team with site
//    "abft.allreduce".
//
//  * checked_block_reduce — checksum columns on the distributed HEMM.
//    The column sums of the local partial products are reduced as an extra
//    lane next to the payload; sum-then-reduce must equal reduce-then-sum,
//    so a corrupted element that slipped past the transport checks breaks
//    the per-column invariant:  sum_i (Σ_r P_r)(i,j)  ==  Σ_r sum_i P_r(i,j)
//    (up to a rounding envelope). A mismatch replays the block from the
//    saved partials; because floating rounding makes this lane a heuristic,
//    a *persistent* mismatch is counted (abft.hemm.unresolved) but not
//    fatal — the Fletcher agreement above is the hard guarantee.
//
// Detection is collective-consistent by construction: every verdict the
// ranks branch on is either derived from bitwise-agreed data or exchanged
// through agree(), so replay decisions can never split the team.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/checksum.hpp"
#include "comm/reduction.hpp"
#include "common/check.hpp"
#include "common/policy.hpp"
#include "common/scalar.hpp"
#include "la/matrix.hpp"
#include "perf/tracker.hpp"

namespace chase::coll {

using la::Index;

/// CHASE_ABFT parser: "0", "off" and "false" disarm, any other value arms.
inline long long parse_abft(const char*, const std::string& text) {
  return text == "0" || text == "off" || text == "false" ? 0 : 1;
}

/// CHASE_ABFT knob (default off): raw 1 armed, 0 disarmed.
inline constinit policy::Knob abft_knob{"CHASE_ABFT", parse_abft};

inline bool abft_enabled() { return abft_knob.raw() > 0; }

class ScopedAbft : public policy::Scoped {
 public:
  explicit ScopedAbft(bool on) : Scoped(abft_knob, on ? 1 : 0) {}
};

/// Replay budget per protected collective before escalating.
inline constexpr int kAbftMaxReplays = 2;

/// Every element finite (complex: both parts). Integral buffers are always
/// "finite" — the finiteness sentinel only applies to floating payloads.
template <typename T>
bool buffer_finite(const T* data, Index count) {
  if constexpr (kIsComplex<T>) {
    for (Index i = 0; i < count; ++i) {
      if (!std::isfinite(data[i].real()) || !std::isfinite(data[i].imag())) {
        return false;
      }
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    for (Index i = 0; i < count; ++i) {
      if (!std::isfinite(data[i])) return false;
    }
  }
  return true;
}

/// Column-sum checksums of a local block: chk[j] = sum_i m(i, j).
template <typename T>
void column_checksums(la::ConstMatrixView<T> m, std::vector<T>& chk) {
  chk.assign(std::size_t(m.cols()), T(0));
  for (Index j = 0; j < m.cols(); ++j) {
    const T* col = m.col(j);
    T acc(0);
    for (Index i = 0; i < m.rows(); ++i) acc += col[i];
    chk[std::size_t(j)] = acc;
  }
}

/// First column of the reduced block whose column sum disagrees with the
/// independently reduced checksum lane beyond a rounding envelope; -1 if
/// the invariant holds everywhere. NaN on either side counts as a mismatch.
template <typename T>
Index column_mismatch(la::ConstMatrixView<T> reduced,
                      const std::vector<T>& chk) {
  using R = RealType<T>;
  const R eps = std::numeric_limits<R>::epsilon();
  for (Index j = 0; j < reduced.cols(); ++j) {
    const T* col = reduced.col(j);
    T sum(0);
    R absacc(0);
    for (Index i = 0; i < reduced.rows(); ++i) {
      sum += col[i];
      absacc += std::abs(col[i]);
    }
    const R diff = std::abs(sum - chk[std::size_t(j)]);
    // Generous envelope: sum-then-reduce and reduce-then-sum accumulate in
    // different orders, with error growing with the term count.
    const R envelope = eps * (R(100) + R(reduced.rows())) *
                       (absacc + std::abs(chk[std::size_t(j)]) + R(1));
    if (!(diff <= envelope)) return j;  // NaN-safe: !(NaN <= x) is true
  }
  return -1;
}

/// Fletcher-checksummed allreduce: reduce, verify (cross-rank hash
/// agreement + finiteness) over the control plane, replay from the saved
/// input on detection. Falls through to the plain allreduce when ABFT is
/// off or the communicator is trivial.
template <typename Comm, typename T>
void checked_all_reduce(const Comm& comm, T* data, Index count,
                        comm::Reduction op = comm::Reduction::kSum) {
  if (!abft_enabled() || comm.size() <= 1 || count <= 0) {
    comm.all_reduce(data, count, op);
    return;
  }
  thread_local std::vector<T> saved;
  saved.assign(data, data + count);
  const bool input_finite = buffer_finite(saved.data(), count);
  int replays = 0;
  for (;;) {
    comm.all_reduce(data, count, op);
    const std::uint64_t hash =
        ckpt::fletcher64(data, std::size_t(count) * sizeof(T));
    // One agreement word decides for every rank at once: if the packed
    // values are uniform the results are bitwise identical everywhere (so
    // the `suspicious` bit is identical too); if they differ — whether by
    // hash or by verdict — every rank sees non-uniform and replays. Either
    // way the branch below is collective-consistent.
    const bool suspicious = input_finite && !buffer_finite(data, count);
    const std::uint64_t packed = (hash << 1) | (suspicious ? 1u : 0u);
    const bool uniform = comm.agree(packed);
    if (uniform && !suspicious) {
      if (replays > 0) perf::bump_counter("abft.allreduce.repaired");
      return;
    }
    perf::bump_counter("abft.allreduce.detected");
    if (replays >= kAbftMaxReplays) {
      comm.raise_error("abft.allreduce",
                       "allreduce payload corruption persisted after " +
                           std::to_string(replays) + " replays");
    }
    ++replays;
    std::copy(saved.begin(), saved.end(), data);
    perf::bump_counter("abft.allreduce.replay");
  }
}

/// Checksum-column-guarded block reduction for the distributed HEMM.
/// `block` must be contiguous (ld == rows); the payload and its checksum
/// lane go through checked_all_reduce, then the column invariant is
/// verified and, on mismatch, the whole block replays from the saved
/// partials (budgeted; a persistent mismatch is recorded, not fatal).
template <typename Comm, typename T>
void checked_block_reduce(const Comm& comm, la::MatrixView<T> block) {
  CHASE_CHECK_MSG(block.ld() == block.rows(),
                  "abft: block reduction needs a contiguous payload");
  const Index count = block.rows() * block.cols();
  thread_local std::vector<T> saved;
  thread_local std::vector<T> chk;
  saved.assign(block.data(), block.data() + count);
  column_checksums(block.as_const(), chk);
  int replays = 0;
  for (;;) {
    checked_all_reduce(comm, block.data(), count);
    checked_all_reduce(comm, chk.data(), Index(chk.size()));
    // Post-allreduce both lanes are bitwise identical on every rank (hash-
    // verified above), so the mismatch verdict is identical too.
    const Index bad = column_mismatch(block.as_const(), chk);
    if (bad < 0) {
      if (replays > 0) perf::bump_counter("abft.hemm.repaired");
      return;
    }
    perf::bump_counter("abft.hemm.detected");
    if (replays >= kAbftMaxReplays) {
      // Heuristic lane: rounding could conceivably breach the envelope, so
      // persistence is surfaced through counters instead of killing runs.
      perf::bump_counter("abft.hemm.unresolved");
      return;
    }
    ++replays;
    std::copy(saved.begin(), saved.end(), block.data());
    column_checksums(block.as_const(), chk);
    perf::bump_counter("abft.hemm.replay");
  }
}

}  // namespace chase::coll
