// SIMD kernel-dispatch layer for the ML hot loops.
//
// Every refit hot path — histogram accumulation and sibling subtraction in
// the tree builder, the Newton-step products in the logistic solver, batched
// score/sigmoid/loss-gradient updates in the boosting engine, and the
// squared-L2 distance kernels behind kNN / k-means — calls these primitives
// through one process-global dispatch table instead of open-coding scalar
// loops.
//
// Determinism contract: every table is bitwise identical to the reference
// table. The reference primitives reproduce the exact floating-point
// accumulation order of the pre-kernel scalar loops. An accelerated table
// may replace only a primitive whose vector form performs exactly the
// reference's operations on every element: no reassociated reductions, no
// FMA, no vector exp. NURD's flags come from boosted-tree refits that are
// chaotic in their inputs, so a last-ulp difference in one reduction changes
// the paper's own output; the reductions and sigmoid therefore stay scalar
// in every table. tests/test_kernel.cpp pins each replaced entry bitwise and
// re-runs every Table-3 method under each table with exact equality.
//
// Tables:
//   * reference — portable scalar code, the golden path.
//   * avx2 — the reference table with the six elementwise primitives
//     (axpy, vsub, syrk_rank1_upper, hist_accumulate, hist_subtract,
//     bin_index) swapped for AVX2 intrinsics; x86-64 builds only.
//
// ops() picks the table once from the CPU: avx2 when it is compiled in and
// CPUID reports AVX2, the reference table otherwise. The tables agree
// bitwise, so there is nothing for a user to select.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nurd::kernel {

/// Doubles per histogram bin in the tree builder's flat histograms:
/// (G, H, count, pad). The pad lane makes one bin exactly one AVX2 vector,
/// so the accumulate inner loop is a single load/add/store per row.
inline constexpr std::size_t kHistBinStride = 4;

/// One table's implementation of every primitive. All pointers may be
/// unaligned (the accelerated tables use unaligned loads); 32-byte
/// alignment (common/aligned.h) is a throughput bonus, never a requirement.
/// n == 0 is valid everywhere and touches no memory.
struct KernelOps {
  const char* name;  ///< "reference" | "avx2"

  // ---- reductions (sequential from `init` in index order) ----
  /// init + Σ a[i]·b[i]
  double (*dot)(double init, const double* a, const double* b, std::size_t n);
  /// init − Σ a[i]·b[i] (the Cholesky/solve inner-loop shape)
  double (*dot_sub)(double init, const double* a, const double* b,
                    std::size_t n);
  /// Σ (a[i]−b[i])²
  double (*squared_l2)(const double* a, const double* b, std::size_t n);
  /// *sum_a = Σ a[idx[i]], *sum_b = Σ b[idx[i]] — the (G, H) node totals.
  void (*pair_sum_indexed)(const double* a, const double* b,
                           const std::size_t* idx, std::size_t n,
                           double* sum_a, double* sum_b);

  // ---- elementwise ----
  /// y[i] += alpha·x[i]
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// out[i] = a[i] − b[i]
  void (*vsub)(double* out, const double* a, const double* b, std::size_t n);

  // ---- small dense matrix products ----
  /// out[r] = bias + Σ_c a[r·cols + c]·x[c]  (row-major A, one dot per row)
  void (*gemv)(const double* a, std::size_t rows, std::size_t cols,
               const double* x, double bias, double* out);
  /// Rank-1 SYRK-lite update of a row-major symmetric matrix's upper
  /// triangle: h[j·ld + k] += (v·row[j])·row[k] for 0 ≤ j ≤ k < d.
  void (*syrk_rank1_upper)(double* h, std::size_t ld, const double* row,
                           std::size_t d, double v);
  /// out[r] = Σ_c (a[r·cols + c] − x[c])²  (batched squared-L2: kNN, k-means)
  void (*squared_l2_rows)(const double* a, std::size_t rows, std::size_t cols,
                          const double* x, double* out);

  // ---- histogram (kHistBinStride-strided (G, H, count, pad) bins) ----
  /// For each r in rows: bins[bin_of_row[r]·4 + {0,1,2}] += {grad[r],
  /// hess[r], 1.0}. Rows are processed in order (serial per-bin adds).
  void (*hist_accumulate)(double* bins, const std::uint16_t* bin_of_row,
                          const std::size_t* rows, std::size_t n,
                          const double* grad, const double* hess);
  /// parent[k] −= child[k] (sibling subtraction; n counts doubles)
  void (*hist_subtract)(double* parent, const double* child, std::size_t n);

  // ---- fixed-width binning (common/histogram.cpp) ----
  /// out[i] = Histogram::bin_of(values[i]) for an equal-width histogram:
  /// v ≤ lo → 0, v ≥ hi → n_bins−1, else min(⌊(v−lo)/width⌋, n_bins−1).
  /// Division, not multiply-by-reciprocal, in every table.
  void (*bin_index)(const double* values, std::size_t n, double lo, double hi,
                    double width, std::size_t n_bins, std::uint32_t* out);

  // ---- nonlinear ----
  /// out[i] = 1/(1+e^(−z[i])), bit-identical to common/stats.h sigmoid().
  void (*sigmoid)(const double* z, double* out, std::size_t n);
};

/// The dispatch table for this CPU, resolved on first call. Hot loops should
/// hoist `const auto& k = kernel::ops();` out of the loop.
const KernelOps& ops();

/// The reference table (always available; what tests diff against).
const KernelOps& reference_ops();

/// ops().name, for bench output and log lines ("the table that ran").
const char* backend_name();

namespace detail {
/// The AVX2 table; nullptr when compiled out of this build. Whether the CPU
/// can run it is ops()'s decision.
const KernelOps* avx2_ops();

/// Test seam: makes ops() return `table` from now on. Only the kernel tests
/// call it, to run every method under each table on one host; it must not
/// race in-flight kernel calls.
void use_table(const KernelOps& table);
}  // namespace detail

}  // namespace nurd::kernel
