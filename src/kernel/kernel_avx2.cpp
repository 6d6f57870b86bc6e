// AVX2 kernel table: the reference table with eight primitives swapped for
// AVX2 intrinsics — the six elementwise ones (axpy, vsub, syrk_rank1_upper,
// hist_accumulate, hist_subtract, bin_index) and the split scans split_scan4
// and hist_split4, whose lanes are four features scanned in lockstep. Every
// function carries a per-function __attribute__((target("avx2"))) so this
// translation unit compiles under the library's ordinary flags; ops() only
// installs this table after runtime CPUID detection (kernel.cpp), so no AVX2
// instruction executes on a CPU without it.
//
// Determinism contract (see kernel.h): each swapped primitive is bitwise
// identical to the reference — vector lanes perform exactly the scalar
// operations, one per element (for the split scans, one per feature-step), no
// reassociation and no FMA. Reductions and sigmoid cannot be vectorized
// under that rule and stay the reference's.
#include "kernel/kernel.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <limits>

#define NURD_AVX2 __attribute__((target("avx2")))

namespace nurd::kernel {
namespace {

NURD_AVX2 void avx2_axpy(double alpha, const double* x, double* y,
                         std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

NURD_AVX2 void avx2_vsub(double* out, const double* a, const double* b,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

NURD_AVX2 void avx2_syrk_rank1_upper(double* h, std::size_t ld,
                                     const double* row, std::size_t d,
                                     double v) {
  for (std::size_t j = 0; j < d; ++j) {
    // h[j·ld + k] += (v·row[j])·row[k] — elementwise per entry, bit-equal to
    // the reference (each entry gets exactly one mul+add per call).
    avx2_axpy(v * row[j], row + j, h + j * ld + j, d - j);
  }
}

NURD_AVX2 void avx2_hist_accumulate(double* bins,
                                    const std::uint16_t* bin_of_row,
                                    const std::size_t* rows, std::size_t n,
                                    const double* grad, const double* hess) {
  // One (G, H, count, pad) bin is exactly one vector: a row's contribution
  // is a single load/add/store. Rows are processed in order (two rows
  // hitting the same bin are serial adds), so this is bit-identical to the
  // reference accumulation.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = rows[i];
    double* bin = bins + std::size_t{bin_of_row[r]} * kHistBinStride;
    const __m256d inc = _mm256_set_pd(0.0, 1.0, hess[r], grad[r]);
    _mm256_storeu_pd(bin, _mm256_add_pd(_mm256_loadu_pd(bin), inc));
  }
}

NURD_AVX2 void avx2_hist_subtract(double* parent, const double* child,
                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(parent + i,
                     _mm256_sub_pd(_mm256_loadu_pd(parent + i),
                                   _mm256_loadu_pd(child + i)));
  }
  for (; i < n; ++i) parent[i] -= child[i];
}

NURD_AVX2 void avx2_bin_index(const double* values, std::size_t n, double lo,
                              double hi, double width, std::size_t n_bins,
                              std::uint32_t* out) {
  // Same arithmetic as the reference (division, then truncation), so bins
  // are bit-identical; the vector lanes just do four divisions at once.
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d vw = _mm256_set1_pd(width);
  const auto last = static_cast<std::uint32_t>(n_bins - 1);
  const __m128i vlast = _mm_set1_epi32(static_cast<int>(last));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const __m256d q = _mm256_div_pd(_mm256_sub_pd(v, vlo), vw);
    // Truncating convert matches the scalar static_cast; in-range values
    // (lo < v < hi) keep q within int32 because q < n_bins ≤ 2^32… but the
    // clamp below also covers any dangling lane, and the ≤lo / ≥hi lanes are
    // overwritten by the blends.
    __m128i b = _mm256_cvttpd_epi32(q);
    // A ≤lo lane can truncate-saturate to INT32_MIN, which min_epu32 treats
    // as huge-unsigned and clamps to `last`; the boundary fixup below then
    // overwrites it, matching the scalar branches exactly.
    b = _mm_min_epu32(b, vlast);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), b);
    // v ≤ lo → 0, v ≥ hi → last (rare lanes; patch them scalar).
    const int le_bits =
        _mm256_movemask_pd(_mm256_cmp_pd(v, vlo, _CMP_LE_OQ));
    const int ge_bits =
        _mm256_movemask_pd(_mm256_cmp_pd(v, vhi, _CMP_GE_OQ));
    if ((le_bits | ge_bits) != 0) {
      for (int l = 0; l < 4; ++l) {
        if ((le_bits >> l) & 1) {
          out[i + static_cast<std::size_t>(l)] = 0;
        } else if ((ge_bits >> l) & 1) {
          out[i + static_cast<std::size_t>(l)] = last;
        }
      }
    }
  }
  for (; i < n; ++i) {
    const double v = values[i];
    if (v <= lo) {
      out[i] = 0;
    } else if (v >= hi) {
      out[i] = last;
    } else {
      const auto b = static_cast<std::uint32_t>((v - lo) / width);
      out[i] = b < last ? b : last;
    }
  }
}

NURD_AVX2 void avx2_split_scan4(const SplitScan4& scan, double* best_gain,
                                std::size_t* best_pos) {
  const double neg_inf = -std::numeric_limits<double>::infinity();
  if (scan.n < 2) {
    for (std::size_t k = 0; k < 4; ++k) {
      best_gain[k] = neg_inf;
      best_pos[k] = 0;
    }
    return;
  }
  // One step advances all four lanes. The rows are gathered with scalar
  // loads (_mm256_set_pd), which outran vgatherqpd on these short segments;
  // each step's next-row values are carried over as the following step's
  // current ones, so x is loaded once per row per lane.
  const std::size_t* o0 = scan.order[0];
  const std::size_t* o1 = scan.order[1];
  const std::size_t* o2 = scan.order[2];
  const std::size_t* o3 = scan.order[3];
  const double* x0 = scan.x[0];
  const double* x1 = scan.x[1];
  const double* x2 = scan.x[2];
  const double* x3 = scan.x[3];
  const std::size_t st = scan.x_stride;
  const double* grad = scan.grad;
  const double* hess = scan.hess;

  const __m256d neg_half = _mm256_set1_pd(-0.5);
  const __m256d lambda = _mm256_set1_pd(scan.lambda);
  const __m256d min_weight = _mm256_set1_pd(scan.min_child_weight);
  const __m256d parent = _mm256_set1_pd(scan.parent_obj);
  const __m256d g_total = _mm256_set1_pd(scan.g_total);
  const __m256d h_total = _mm256_set1_pd(scan.h_total);
  const __m256d vneg_inf = _mm256_set1_pd(neg_inf);
  const __m256d one = _mm256_set1_pd(1.0);

  __m256d g_left = _mm256_setzero_pd();
  __m256d h_left = _mm256_setzero_pd();
  __m256d best = vneg_inf;
  __m256d best_at = _mm256_setzero_pd();
  __m256d at = _mm256_setzero_pd();  // i as a double, exact below 2^53
  std::size_t r0 = o0[0], r1 = o1[0], r2 = o2[0], r3 = o3[0];
  __m256d x_cur =
      _mm256_set_pd(x3[r3 * st], x2[r2 * st], x1[r1 * st], x0[r0 * st]);
  for (std::size_t i = 0; i + 1 < scan.n; ++i) {
    g_left = _mm256_add_pd(
        g_left, _mm256_set_pd(grad[r3], grad[r2], grad[r1], grad[r0]));
    h_left = _mm256_add_pd(
        h_left, _mm256_set_pd(hess[r3], hess[r2], hess[r1], hess[r0]));
    r0 = o0[i + 1];
    r1 = o1[i + 1];
    r2 = o2[i + 1];
    r3 = o3[i + 1];
    const __m256d x_next =
        _mm256_set_pd(x3[r3 * st], x2[r2 * st], x1[r1 * st], x0[r0 * st]);
    // The reference skips when x_next <= x_cur; NLE_UQ is exactly its
    // negation, NaN included.
    const __m256d boundary = _mm256_cmp_pd(x_next, x_cur, _CMP_NLE_UQ);
    x_cur = x_next;

    const __m256d g_right = _mm256_sub_pd(g_total, g_left);
    const __m256d h_right = _mm256_sub_pd(h_total, h_left);
    const __m256d obj_left =
        _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(neg_half, g_left), g_left),
                      _mm256_add_pd(h_left, lambda));
    const __m256d obj_right = _mm256_div_pd(
        _mm256_mul_pd(_mm256_mul_pd(neg_half, g_right), g_right),
        _mm256_add_pd(h_right, lambda));
    const __m256d blocked =
        _mm256_or_pd(_mm256_cmp_pd(h_left, min_weight, _CMP_LT_OQ),
                     _mm256_cmp_pd(h_right, min_weight, _CMP_LT_OQ));
    const __m256d gain = _mm256_blendv_pd(
        _mm256_sub_pd(_mm256_sub_pd(parent, obj_left), obj_right), vneg_inf,
        blocked);
    const __m256d take =
        _mm256_and_pd(boundary, _mm256_cmp_pd(gain, best, _CMP_GT_OQ));
    best = _mm256_blendv_pd(best, gain, take);
    best_at = _mm256_blendv_pd(best_at, at, take);
    at = _mm256_add_pd(at, one);
  }
  alignas(32) double at_out[4];
  _mm256_storeu_pd(best_gain, best);
  _mm256_store_pd(at_out, best_at);
  for (std::size_t k = 0; k < 4; ++k) {
    best_pos[k] = static_cast<std::size_t>(at_out[k]);
  }
}

NURD_AVX2 void avx2_hist_split4(const HistSplit4& split, double* best_gain,
                                std::size_t* best_bin) {
  // A lane past its last candidate reads this zero bin, never past its own
  // histogram, and its candidates are masked off.
  alignas(32) static constexpr double kZeroBin[kHistBinStride] = {};
  const double* const* bins = split.bins;
  std::size_t last[4];  // the lane's candidates are bins 0 .. last − 1
  std::size_t steps = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    last[k] = split.nb[k] > 1 ? split.nb[k] - 1 : 0;
    steps = last[k] > steps ? last[k] : steps;
  }

  const __m256d neg_half = _mm256_set1_pd(-0.5);
  const __m256d lambda = _mm256_set1_pd(split.lambda);
  const __m256d min_weight = _mm256_set1_pd(split.min_child_weight);
  const __m256d parent = _mm256_set1_pd(split.parent_obj);
  const __m256d g_total = _mm256_set1_pd(split.g_total);
  const __m256d h_total = _mm256_set1_pd(split.h_total);
  const __m256d n_node = _mm256_set1_pd(split.n_node);
  const __m256d vneg_inf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d limit = _mm256_set_pd(
      static_cast<double>(last[3]), static_cast<double>(last[2]),
      static_cast<double>(last[1]), static_cast<double>(last[0]));

  __m256d g_left = zero;
  __m256d h_left = zero;
  __m256d n_left = zero;
  __m256d best = vneg_inf;
  __m256d best_at = zero;
  __m256d at = zero;  // b as a double, exact below 2^53
  for (std::size_t b = 0; b < steps; ++b) {
    const std::size_t off = b * kHistBinStride;
    // One (G, H, count, pad) bin per lane, transposed 4×4 into a G, an H
    // and a count vector (the pad vector is never formed).
    const __m256d r0 =
        _mm256_loadu_pd(b < last[0] ? bins[0] + off : kZeroBin);
    const __m256d r1 =
        _mm256_loadu_pd(b < last[1] ? bins[1] + off : kZeroBin);
    const __m256d r2 =
        _mm256_loadu_pd(b < last[2] ? bins[2] + off : kZeroBin);
    const __m256d r3 =
        _mm256_loadu_pd(b < last[3] ? bins[3] + off : kZeroBin);
    const __m256d gc01 = _mm256_unpacklo_pd(r0, r1);  // G0 G1 C0 C1
    const __m256d hp01 = _mm256_unpackhi_pd(r0, r1);  // H0 H1 P0 P1
    const __m256d gc23 = _mm256_unpacklo_pd(r2, r3);  // G2 G3 C2 C3
    const __m256d hp23 = _mm256_unpackhi_pd(r2, r3);  // H2 H3 P2 P3
    g_left = _mm256_add_pd(g_left, _mm256_permute2f128_pd(gc01, gc23, 0x20));
    h_left = _mm256_add_pd(h_left, _mm256_permute2f128_pd(hp01, hp23, 0x20));
    n_left = _mm256_add_pd(n_left, _mm256_permute2f128_pd(gc01, gc23, 0x31));

    // The reference's `continue` (N_L == 0) and `break` (N_L == n_node)
    // both become "no candidate": once a lane's exact integer count reaches
    // n_node it stays there.
    const __m256d open = _mm256_and_pd(
        _mm256_cmp_pd(at, limit, _CMP_LT_OQ),
        _mm256_and_pd(_mm256_cmp_pd(n_left, zero, _CMP_NEQ_OQ),
                      _mm256_cmp_pd(n_left, n_node, _CMP_NEQ_OQ)));

    const __m256d g_right = _mm256_sub_pd(g_total, g_left);
    const __m256d h_right = _mm256_sub_pd(h_total, h_left);
    const __m256d obj_left =
        _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(neg_half, g_left), g_left),
                      _mm256_add_pd(h_left, lambda));
    const __m256d obj_right = _mm256_div_pd(
        _mm256_mul_pd(_mm256_mul_pd(neg_half, g_right), g_right),
        _mm256_add_pd(h_right, lambda));
    const __m256d blocked =
        _mm256_or_pd(_mm256_cmp_pd(h_left, min_weight, _CMP_LT_OQ),
                     _mm256_cmp_pd(h_right, min_weight, _CMP_LT_OQ));
    const __m256d gain = _mm256_blendv_pd(
        _mm256_sub_pd(_mm256_sub_pd(parent, obj_left), obj_right), vneg_inf,
        blocked);
    const __m256d take =
        _mm256_and_pd(open, _mm256_cmp_pd(gain, best, _CMP_GT_OQ));
    best = _mm256_blendv_pd(best, gain, take);
    best_at = _mm256_blendv_pd(best_at, at, take);
    at = _mm256_add_pd(at, one);
  }
  alignas(32) double at_out[4];
  _mm256_storeu_pd(best_gain, best);
  _mm256_store_pd(at_out, best_at);
  for (std::size_t k = 0; k < 4; ++k) {
    best_bin[k] = static_cast<std::size_t>(at_out[k]);
  }
}

}  // namespace

namespace detail {
const KernelOps* avx2_ops() {
  static const KernelOps table = [] {
    KernelOps t = reference_ops();
    t.name = "avx2";
    t.axpy = avx2_axpy;
    t.vsub = avx2_vsub;
    t.syrk_rank1_upper = avx2_syrk_rank1_upper;
    t.hist_accumulate = avx2_hist_accumulate;
    t.hist_subtract = avx2_hist_subtract;
    t.bin_index = avx2_bin_index;
    t.split_scan4 = avx2_split_scan4;
    t.hist_split4 = avx2_hist_split4;
    return t;
  }();
  return &table;
}
}  // namespace detail

}  // namespace nurd::kernel

#else  // non-x86 build: no AVX2 table.

namespace nurd::kernel::detail {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace nurd::kernel::detail

#endif
