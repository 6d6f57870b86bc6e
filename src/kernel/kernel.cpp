#include "kernel/kernel.h"

#include <atomic>
#include <limits>

#include "common/stats.h"

namespace nurd::kernel {

namespace {

// ---- reference table -------------------------------------------------------
// Each primitive is the EXACT scalar loop the call sites ran before the
// dispatch layer existed — same accumulation order, same operations — so the
// reference table is bit-identical to the pre-kernel library. Do not
// "optimize" these (no reassociation, no FMA): they are the golden path the
// parity suite pins the accelerated tables against, and the entries every
// accelerated table shares.

double ref_dot(double init, const double* a, const double* b, std::size_t n) {
  double s = init;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double ref_dot_sub(double init, const double* a, const double* b,
                   std::size_t n) {
  double s = init;
  for (std::size_t i = 0; i < n; ++i) s -= a[i] * b[i];
  return s;
}

double ref_squared_l2(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void ref_pair_sum_indexed(const double* a, const double* b,
                          const std::size_t* idx, std::size_t n,
                          double* sum_a, double* sum_b) {
  double sa = 0.0, sb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sa += a[idx[i]];
    sb += b[idx[i]];
  }
  *sum_a = sa;
  *sum_b = sb;
}

void ref_axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ref_vsub(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void ref_gemv(const double* a, std::size_t rows, std::size_t cols,
              const double* x, double bias, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = ref_dot(bias, a + r * cols, x, cols);
  }
}

void ref_syrk_rank1_upper(double* h, std::size_t ld, const double* row,
                          std::size_t d, double v) {
  for (std::size_t j = 0; j < d; ++j) {
    const double vj = v * row[j];
    double* hrow = h + j * ld;
    for (std::size_t k = j; k < d; ++k) hrow[k] += vj * row[k];
  }
}

void ref_squared_l2_rows(const double* a, std::size_t rows, std::size_t cols,
                         const double* x, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = ref_squared_l2(a + r * cols, x, cols);
  }
}

void ref_hist_accumulate(double* bins, const std::uint16_t* bin_of_row,
                         const std::size_t* rows, std::size_t n,
                         const double* grad, const double* hess) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = rows[i];
    double* bin = bins + std::size_t{bin_of_row[r]} * kHistBinStride;
    bin[0] += grad[r];
    bin[1] += hess[r];
    bin[2] += 1.0;
  }
}

void ref_hist_subtract(double* parent, const double* child, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) parent[k] -= child[k];
}

void ref_bin_index(const double* values, std::size_t n, double lo, double hi,
                   double width, std::size_t n_bins, std::uint32_t* out) {
  const auto last = static_cast<std::uint32_t>(n_bins - 1);
  for (std::size_t i = 0; i < n; ++i) {
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

void ref_split_scan4(const SplitScan4& scan, double* best_gain,
                     std::size_t* best_pos) {
  const auto objective = [&](double g, double h) {
    return -0.5 * g * g / (h + scan.lambda);
  };
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t* order = scan.order[k];
    const double* col = scan.x[k];
    double g_left = 0.0, h_left = 0.0;
    double best = -std::numeric_limits<double>::infinity();
    std::size_t pos = 0;
    for (std::size_t i = 0; i + 1 < scan.n; ++i) {
      g_left += scan.grad[order[i]];
      h_left += scan.hess[order[i]];
      if (col[order[i + 1] * scan.x_stride] <= col[order[i] * scan.x_stride]) {
        continue;
      }
      const double g_right = scan.g_total - g_left;
      const double h_right = scan.h_total - h_left;
      const double gain =
          h_left < scan.min_child_weight || h_right < scan.min_child_weight
              ? -std::numeric_limits<double>::infinity()
              : scan.parent_obj - objective(g_left, h_left) -
                    objective(g_right, h_right);
      if (gain > best) {
        best = gain;
        pos = i;
      }
    }
    best_gain[k] = best;
    best_pos[k] = pos;
  }
}

void ref_hist_split4(const HistSplit4& split, double* best_gain,
                     std::size_t* best_bin) {
  const auto objective = [&](double g, double h) {
    return -0.5 * g * g / (h + split.lambda);
  };
  for (std::size_t k = 0; k < 4; ++k) {
    const double* bins = split.bins[k];
    double g_left = 0.0, h_left = 0.0, n_left = 0.0;
    double best = -std::numeric_limits<double>::infinity();
    std::size_t at = 0;
    for (std::size_t b = 0; b + 1 < split.nb[k]; ++b) {
      g_left += bins[b * kHistBinStride];
      h_left += bins[b * kHistBinStride + 1];
      n_left += bins[b * kHistBinStride + 2];
      if (n_left == 0.0) continue;        // empty prefix: same as no split
      if (n_left == split.n_node) break;  // empty suffix: no more candidates
      const double g_right = split.g_total - g_left;
      const double h_right = split.h_total - h_left;
      const double gain =
          h_left < split.min_child_weight || h_right < split.min_child_weight
              ? -std::numeric_limits<double>::infinity()
              : split.parent_obj - objective(g_left, h_left) -
                    objective(g_right, h_right);
      if (gain > best) {
        best = gain;
        at = b;
      }
    }
    best_gain[k] = best;
    best_bin[k] = at;
  }
}

void ref_sigmoid(const double* z, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = nurd::sigmoid(z[i]);
}

constexpr KernelOps kReferenceOps = {
    "reference",        ref_dot,
    ref_dot_sub,        ref_squared_l2,
    ref_pair_sum_indexed, ref_axpy,
    ref_vsub,           ref_gemv,
    ref_syrk_rank1_upper, ref_squared_l2_rows,
    ref_hist_accumulate, ref_hist_subtract,
    ref_bin_index,      ref_split_scan4,
    ref_hist_split4,    ref_sigmoid,
};

// ---- dispatch --------------------------------------------------------------

/// The table this CPU runs: avx2 when it is compiled in and CPUID reports
/// AVX2, the reference table otherwise.
const KernelOps* cpu_table() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return detail::avx2_ops();
#endif
  return &kReferenceOps;
}

std::atomic<const KernelOps*> g_table{nullptr};

}  // namespace

const KernelOps& ops() {
  const KernelOps* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Racing first calls all resolve and store the same table.
    table = cpu_table();
    g_table.store(table, std::memory_order_release);
  }
  return *table;
}

const KernelOps& reference_ops() { return kReferenceOps; }

const char* backend_name() { return ops().name; }

void detail::use_table(const KernelOps& table) {
  g_table.store(&table, std::memory_order_release);
}

}  // namespace nurd::kernel
