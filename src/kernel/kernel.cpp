#include "kernel/kernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "common/stats.h"

namespace nurd::kernel {

namespace {

// ---- reference backend -----------------------------------------------------
// Each primitive is the EXACT scalar loop the call sites ran before the
// dispatch layer existed — same accumulation order, same operations — so the
// reference backend is bit-identical to the pre-kernel library. Do not
// "optimize" these (no reassociation, no FMA): they are the golden path the
// parity suite pins the accelerated backends against.

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
    ref_bin_index,      ref_sigmoid,
};

// ---- dispatch --------------------------------------------------------------

std::atomic<const KernelOps*> g_ops{nullptr};
std::once_flag g_env_once;

const KernelOps* table_of(Backend b) {
  switch (b) {
    case Backend::kReference:
      return &kReferenceOps;
    case Backend::kAvx2:
      return detail::avx2_ops();
  }
  return nullptr;
}

/// Resolves NURD_KERNEL_BACKEND once. Unknown or unavailable values warn on
/// stderr and fall back to the reference backend (a bench run on a non-AVX2
/// box should degrade, not die).
void init_from_env() {
  // Read exactly once, under std::call_once before any worker threads
  // exist; nothing in the process calls setenv.
  const char* env = std::getenv("NURD_KERNEL_BACKEND");  // NOLINT(concurrency-mt-unsafe)
  const KernelOps* chosen = &kReferenceOps;
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "reference") == 0) {
      chosen = &kReferenceOps;
    } else if (std::strcmp(env, "auto") == 0) {
      chosen = table_of(best_available());
    } else if (std::strcmp(env, "avx2") == 0) {
      if (backend_available(Backend::kAvx2)) {
        chosen = table_of(Backend::kAvx2);
      } else {
        std::fprintf(stderr,
                     "nurd: NURD_KERNEL_BACKEND=%s not available on this "
                     "build/CPU; using reference\n",
                     env);
      }
    } else {
      std::fprintf(stderr,
                   "nurd: unknown NURD_KERNEL_BACKEND=%s (want reference, "
                   "avx2, or auto); using reference\n",
                   env);
    }
  }
  g_ops.store(chosen, std::memory_order_release);
}

const KernelOps* active_table() {
  const KernelOps* p = g_ops.load(std::memory_order_acquire);
  if (p == nullptr) {
    std::call_once(g_env_once, init_from_env);
    p = g_ops.load(std::memory_order_acquire);
  }
  return p;
}

}  // namespace

const KernelOps& ops() { return *active_table(); }

const KernelOps& reference_ops() { return kReferenceOps; }

bool backend_available(Backend b) {
  switch (b) {
    case Backend::kReference:
      return true;
    case Backend::kAvx2: {
      const KernelOps* t = detail::avx2_ops();
#if defined(__x86_64__) || defined(_M_X64)
      return t != nullptr && __builtin_cpu_supports("avx2");
#else
      return t != nullptr;
#endif
    }
  }
  return false;
}

Backend best_available() {
  if (backend_available(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kReference;
}

void set_backend(Backend b) {
  NURD_CHECK(backend_available(b),
             "requested kernel backend is not available on this build/CPU");
  // Resolve the env var first so a later first-use cannot overwrite this
  // explicit selection.
  (void)active_table();
  g_ops.store(table_of(b), std::memory_order_release);
}

Backend active_backend() {
  const KernelOps* p = active_table();
  if (p == detail::avx2_ops() && p != nullptr) return Backend::kAvx2;
  return Backend::kReference;
}

const char* backend_name() { return active_table()->name; }

}  // namespace nurd::kernel
