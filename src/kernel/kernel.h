// Pluggable SIMD kernel-dispatch layer for the ML hot loops.
//
// Every refit hot path — histogram accumulation and sibling subtraction in
// the tree builder, the Newton-step products in the logistic solver, batched
// score/sigmoid/loss-gradient updates in the boosting engine, and the
// squared-L2 distance kernels behind kNN / k-means — calls these primitives
// through one process-global dispatch table instead of open-coding scalar
// loops. Backends:
//
//   * kReference — portable scalar code, THE bit-exact golden path. Each
//     primitive reproduces the exact floating-point accumulation order of
//     the pre-kernel scalar loops, so a run under the reference backend is
//     bit-identical to the pre-dispatch library. This is the backend the
//     golden-parity suite pins, and the default.
//   * kAvx2 — AVX2 intrinsics (x86-64, compiled via per-function target
//     attributes, selected only after runtime CPUID detection). Elementwise
//     primitives (axpy, vsub, hist_accumulate, hist_subtract, syrk row
//     updates, bin_index) are bit-identical to the reference; REDUCTIONS
//     (dot, dot_sub, squared_l2, pair_sum_indexed, gemv) use vector partial
//     sums and sigmoid uses a vector exp, so results are tolerance-bound,
//     not bit-equal. tests/test_kernel.cpp holds the AVX2 backend to those
//     tolerances per primitive and end-to-end over all Table-3 methods.
//
// Selection: nurd::kernel::set_backend() programmatically, or the
// NURD_KERNEL_BACKEND environment variable (reference | avx2 | auto),
// read once on first use. `auto` picks best_available(). Unset defaults to
// reference — determinism first; benches and the CI matrix leg opt into
// acceleration explicitly.
//
// Later backends (BLAS-backed linalg, GPU offload) plug in by providing
// another KernelOps table; call sites never change.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nurd::kernel {

/// Doubles per histogram bin in the tree builder's flat histograms:
/// (G, H, count, pad). The pad lane makes one bin exactly one AVX2 vector,
/// so the accumulate inner loop is a single load/add/store per row.
inline constexpr std::size_t kHistBinStride = 4;

enum class Backend {
  kReference,  ///< scalar, bit-exact golden path (default)
  kAvx2,       ///< AVX2, runtime-detected, tolerance-bound reductions
};

/// One backend's implementation of every primitive. All pointers may be
/// unaligned (the accelerated backends use unaligned loads); 32-byte
/// alignment (common/aligned.h) is a throughput bonus, never a requirement.
/// n == 0 is valid everywhere and touches no memory.
struct KernelOps {
  const char* name;  ///< "reference" | "avx2"

  // ---- reductions (reference: sequential from `init` in index order) ----
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

  // ---- elementwise (bit-identical across all backends) ----
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
  /// hess[r], 1.0}. Rows are processed in order (serial per-bin adds), so
  /// every backend is bit-identical here.
  void (*hist_accumulate)(double* bins, const std::uint16_t* bin_of_row,
                          const std::size_t* rows, std::size_t n,
                          const double* grad, const double* hess);
  /// parent[k] −= child[k] (sibling subtraction; n counts doubles)
  void (*hist_subtract)(double* parent, const double* child, std::size_t n);

  // ---- fixed-width binning (common/histogram.cpp) ----
  /// out[i] = Histogram::bin_of(values[i]) for an equal-width histogram:
  /// v ≤ lo → 0, v ≥ hi → n_bins−1, else min(⌊(v−lo)/width⌋, n_bins−1).
  /// Division (not multiply-by-reciprocal) in every backend, so bins are
  /// bit-identical across backends.
  void (*bin_index)(const double* values, std::size_t n, double lo, double hi,
                    double width, std::size_t n_bins, std::uint32_t* out);

  // ---- nonlinear ----
  /// out[i] = 1/(1+e^(−z[i])), the overflow-safe form of common/stats.h
  /// sigmoid(). Reference is bit-identical to nurd::sigmoid; AVX2 uses a
  /// vector exp (|Δ| ≲ 1e-14 relative).
  void (*sigmoid)(const double* z, double* out, std::size_t n);
};

/// The active dispatch table. First call resolves NURD_KERNEL_BACKEND; an
/// unset/empty variable selects the reference backend. Hot loops should
/// hoist `const auto& k = kernel::ops();` out of the loop.
const KernelOps& ops();

/// The reference table (always available; what tests diff against).
const KernelOps& reference_ops();

/// True when `b` can run on this build + CPU (kReference: always; kAvx2:
/// x86-64 build and CPUID reports AVX2; any value outside the enum: never).
bool backend_available(Backend b);

/// The fastest available backend (avx2 > reference).
Backend best_available();

/// Switches the process-global dispatch table. NURD_CHECK-fails when `b` is
/// not available. Takes precedence over the env var from this point on.
/// Not intended to be raced against in-flight kernel calls: switch between
/// fits (tests and benches switch at phase boundaries).
void set_backend(Backend b);

/// The currently active backend / its printable name (for bench output and
/// log lines: "the backend that actually ran").
Backend active_backend();
const char* backend_name();

namespace detail {
/// The AVX2 table; nullptr when compiled out of this build. Runtime
/// availability is still gated by backend_available().
const KernelOps* avx2_ops();
}  // namespace detail

}  // namespace nurd::kernel
