// SIMD kernel-dispatch layer for the ML hot loops.
//
// Every refit hot path — the exact-greedy split scan, histogram accumulation
// and sibling subtraction in the tree builder, the Newton-step products in
// the logistic solver, batched score/sigmoid/loss-gradient updates in the
// boosting engine, and the squared-L2 distance kernels behind kNN / k-means —
// calls these primitives through one process-global dispatch table instead of
// open-coding scalar loops.
//
// Determinism contract: every table is bitwise identical to the reference
// table. The reference primitives reproduce the exact floating-point
// accumulation order of the pre-kernel scalar loops. An accelerated table
// may replace only a primitive whose vector form performs exactly the
// reference's operations on every element: no reassociated reductions, no
// FMA, no vector exp. NURD's flags come from boosted-tree refits that are
// chaotic in their inputs, so a last-ulp difference in one reduction changes
// the paper's own output; the reductions and sigmoid therefore stay scalar
// in every table. The exceptions in kind are split_scan4 and hist_split4,
// whose vector lanes are features, not elements: each lane runs one
// feature's whole scalar scan (its prefix sums in the reference's order), so
// four lanes are four independent reference loops in lockstep.
// tests/test_kernel.cpp pins each replaced entry bitwise and re-runs every
// Table-3 method under each table with exact equality.
//
// Tables:
//   * reference — portable scalar code, the golden path.
//   * avx2 — the reference table with eight primitives swapped for AVX2
//     intrinsics: the six elementwise ones (axpy, vsub, syrk_rank1_upper,
//     hist_accumulate, hist_subtract, bin_index) and the two feature-lane
//     split scans, split_scan4 and hist_split4; x86-64 builds only.
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

/// Input of split_scan4: one exact-greedy tree node and four of its
/// features, lane k scanning feature column x[k] in order[k].
struct SplitScan4 {
  /// Lane k's n row ids: the node's rows in its feature's presort order.
  const std::size_t* order[4];
  /// Lane k's feature column: the value of row r is x[k][r·x_stride].
  const double* x[4];
  std::size_t x_stride;
  /// Rows in the node, the same in every lane.
  std::size_t n;
  /// Per-row gradient and Hessian, indexed by row id.
  const double* grad;
  const double* hess;
  /// Σ grad and Σ hess over the node.
  double g_total;
  double h_total;
  /// ℓ(g_total, h_total), see split_scan4.
  double parent_obj;
  double lambda;
  double min_child_weight;
};

/// Input of hist_split4: one histogram tree node and four of its features,
/// lane k scanning the bins of one feature.
struct HistSplit4 {
  /// Lane k's nb[k] bins, kHistBinStride doubles each: (G, H, count, pad).
  const double* bins[4];
  /// Lane k's bin count; a lane with nb[k] < 2 has no candidate and reads
  /// nothing through bins[k].
  std::size_t nb[4];
  /// Rows in the node (the sum of every lane's counts), as a double.
  double n_node;
  /// Σ grad and Σ hess over the node.
  double g_total;
  double h_total;
  /// ℓ(g_total, h_total), see split_scan4.
  double parent_obj;
  double lambda;
  double min_child_weight;
};

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

  // ---- exact-greedy split scan (lanes are features) ----
  /// For each lane k and each i + 1 < n, in order: add grad and hess of row
  /// order[k][i] to the lane's prefix (G_L, H_L); then, unless
  /// x(order[k][i+1]) ≤ x(order[k][i]) (no boundary between equal values),
  /// score the candidate "split after position i":
  ///   gain = (parent_obj − ℓ(G_L, H_L)) − ℓ(g_total − G_L, h_total − H_L),
  ///   ℓ(g, h) = −0.5·g·g / (h + lambda),
  /// or −inf when either Hessian sum is below min_child_weight.
  /// best_gain[k] and best_pos[k] receive the lane's first strict maximum,
  /// or −inf and 0 when no candidate beats −inf. Lanes may repeat a feature.
  void (*split_scan4)(const SplitScan4& scan, double* best_gain,
                      std::size_t* best_pos);

  // ---- histogram split scan (lanes are features) ----
  /// For each lane k and each b + 1 < nb[k], in order: add bin b's G, H and
  /// count to the lane's prefix (G_L, H_L, N_L); then, unless N_L == 0 (an
  /// empty left child) or N_L == n_node (an empty right child, which ends
  /// the lane's candidates: counts are exact non-negative integers), score
  /// the candidate "split after bin b" with split_scan4's gain. best_gain[k]
  /// and best_bin[k] receive the lane's first strict maximum, or −inf and 0
  /// when no candidate beats −inf. Every bin before the last is read: a
  /// count-0 bin of a subtracted histogram may carry a rounding residue in
  /// G and H, which the prefix keeps.
  void (*hist_split4)(const HistSplit4& split, double* best_gain,
                      std::size_t* best_bin);

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
