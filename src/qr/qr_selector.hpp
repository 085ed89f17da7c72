// The QR variant selector of Algorithm 4 (1D-CAQR).
//
// Based on the estimated condition number of the filtered vectors:
//   est >  u^{-1/2} (~1e8 in double)  -> shifted CholeskyQR + CholeskyQR2,
//                                        with Householder QR as the fallback
//                                        if even the shifted POTRF fails;
//   est <  20                         -> a single CholeskyQR pass;
//   otherwise                         -> CholeskyQR2.
//
// A runtime POTRF breakdown escalates the initial pick one rung at a time —
// CholQR1/CholQR2 -> shifted CholQR2 -> HHQR — because a failed repetition
// leaves X untouched (trsm is never applied on failure), so each rung
// restarts from an intact X. Every escalation is observable: the report
// records the rung that actually produced Q and the breakdown count, and the
// thread tracker carries qr.potrf_breakdown / qr.hhqr_fallback /
// qr.variant.<name> counters.
#pragma once

#include "dist/index_map.hpp"
#include "qr/cholqr.hpp"
#include "qr/hhqr_dist.hpp"
#include "qr/tsqr.hpp"

namespace chase::qr {

enum class QrVariant : int {
  kCholQr1 = 0,
  kCholQr2,
  kShiftedCholQr2,
  kHouseholder,
  kTsqr,
};

inline std::string_view qr_variant_name(QrVariant v) {
  switch (v) {
    case QrVariant::kCholQr1:
      return "CholQR1";
    case QrVariant::kCholQr2:
      return "CholQR2";
    case QrVariant::kShiftedCholQr2:
      return "sCholQR2";
    case QrVariant::kTsqr:
      return "TSQR";
    case QrVariant::kHouseholder:
    default:
      return "HHQR";
  }
}

struct QrReport {
  QrVariant selected = QrVariant::kCholQr2;  // what the heuristic picked
  QrVariant used = QrVariant::kCholQr2;      // the rung that produced Q
  bool hhqr_fallback = false;                // POTRF failed, reverted to HHQR
  int potrf_failures = 0;                    // breakdowns along the ladder
  double est_cond = 0;  // the Algorithm 5 estimate the selection was based on
};

struct QrOptions {
  /// Force Householder QR regardless of the estimate (the Table 2 baseline).
  bool force_householder = false;
  /// Force TSQR (ablation only: Section 3.2 argues CholeskyQR's allreduce
  /// beats TSQR's QR-reduction operator at scale; this switch lets the
  /// claim be tested).
  bool force_tsqr = false;
  /// Threshold below which one CholeskyQR pass suffices (Algorithm 4).
  double cholqr1_threshold = 20.0;
};

/// Orthonormalize the distributed tall matrix X in place, choosing the
/// variant per Algorithm 4. `map`/`comm` describe the 1D row distribution
/// (comm may be a self-communicator for the sequential build); `est_cond` is
/// the Algorithm 5 estimate for the current iteration.
namespace detail {

inline void account_qr_report(const QrReport& report) {
  if (auto* t = perf::thread_tracker()) {
    t->bump(std::string("qr.variant.") +
            std::string(qr_variant_name(report.used)));
    if (report.potrf_failures > 0) {
      t->bump("qr.potrf_breakdown", report.potrf_failures);
    }
    if (report.hhqr_fallback) t->bump("qr.hhqr_fallback");
  }
}

}  // namespace detail

template <typename T>
QrReport caqr_1d(la::MatrixView<T> x, const dist::IndexMap& map,
                 const comm::Communicator& comm, double est_cond,
                 const QrOptions& opts = {}) {
  perf::RegionScope scope(perf::Region::kQr);
  QrReport report;
  report.est_cond = est_cond;
  const Communicator* reduce = comm.size() > 1 ? &comm : nullptr;
  const double shift_threshold = 1.0 / std::sqrt(double(unit_roundoff<T>()));

  if (opts.force_householder) {
    report.selected = report.used = QrVariant::kHouseholder;
    hhqr_dist(x, map, comm);
    detail::account_qr_report(report);
    return report;
  }
  if (opts.force_tsqr) {
    report.selected = report.used = QrVariant::kTsqr;
    tsqr(x, comm);
    detail::account_qr_report(report);
    return report;
  }

  if (est_cond > shift_threshold) {
    report.selected = QrVariant::kShiftedCholQr2;
  } else if (est_cond < opts.cholqr1_threshold) {
    report.selected = QrVariant::kCholQr1;
  } else {
    report.selected = QrVariant::kCholQr2;
  }

  // Escalation ladder (Algorithm 4 line 9 generalized to every rung): a
  // breakdown in a CholQR1/CholQR2 repetition escalates to the shifted
  // variant — its first repetition factors the *same* Gram matrix, so
  // retrying the unshifted rung could only fail again — and a breakdown in
  // the shifted variant falls back to Householder QR, which cannot break.
  QrVariant rung = report.selected;
  for (;;) {
    if (rung == QrVariant::kHouseholder) {
      report.hhqr_fallback = true;
      hhqr_dist(x, map, comm);
      break;
    }
    int info = 0;
    switch (rung) {
      case QrVariant::kCholQr1:
        info = cholqr(x, reduce, 1);
        break;
      case QrVariant::kCholQr2:
        info = cholqr(x, reduce, 2);
        break;
      case QrVariant::kShiftedCholQr2:
        info = shifted_cholqr_step(x, reduce, map.global_size());
        if (info == 0) info = cholqr(x, reduce, 2);
        break;
      default:
        break;
    }
    if (info == 0) break;
    ++report.potrf_failures;
    rung = rung == QrVariant::kShiftedCholQr2 ? QrVariant::kHouseholder
                                              : QrVariant::kShiftedCholQr2;
  }
  report.used = rung;
  detail::account_qr_report(report);
  return report;
}

}  // namespace chase::qr
