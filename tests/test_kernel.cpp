// Kernel-dispatch layer tests: per-primitive reference-vs-AVX2 parity
// (including remainder lanes, lengths that are not a multiple of the vector
// width, and NaN/inf propagation), dispatch/selection plumbing, and a
// backend-forced rerun of the golden-parity protocol over every Table-3
// method. Elementwise primitives must be BITWISE identical across backends;
// reductions and sigmoid are held to documented tolerances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/registry.h"
#include "eval/harness.h"
#include "kernel/kernel.h"
#include "trace/generator.h"

namespace nurd::kernel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

// Lengths straddling the 4-lane vector width: empty, sub-vector, exact
// multiples, remainders, and a large block.
const std::vector<std::size_t> kSizes = {0, 1, 3, 4, 5, 7, 8, 31, 64, 1000};

// Deterministic value streams (no global RNG state between tests).
double lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  // Map the top bits into roughly [-4, 4) with a fractional part.
  return static_cast<double>(static_cast<std::int64_t>(s >> 11)) * 0x1p-50;
}

std::vector<double> random_block(std::size_t n, std::uint64_t seed) {
  std::uint64_t s = seed;
  std::vector<double> v(n);
  for (auto& x : v) x = lcg(s);
  return v;
}

bool avx2_ready() { return backend_available(Backend::kAvx2); }

// Fetches both tables without touching the global dispatch state.
const KernelOps& ref() { return reference_ops(); }
const KernelOps& avx() { return *detail::avx2_ops(); }

#define SKIP_WITHOUT_AVX2()                                       \
  if (!avx2_ready()) {                                            \
    GTEST_SKIP() << "AVX2 not available on this build/CPU";       \
  }

// ---------------------------------------------------------------------------
// Reference-backend semantics (golden path): spot-check the contract the
// call sites rely on, independent of any accelerated backend.
// ---------------------------------------------------------------------------

TEST(KernelReference, DotAccumulatesFromInitInIndexOrder) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 5.0, 6.0};
  // Exactly the scalar loop: s = init; s += a[i]*b[i].
  double expect = 0.5;
  for (std::size_t i = 0; i < a.size(); ++i) expect += a[i] * b[i];
  EXPECT_EQ(ref().dot(0.5, a.data(), b.data(), a.size()), expect);
  EXPECT_EQ(ref().dot(0.5, a.data(), b.data(), 0), 0.5);
}

TEST(KernelReference, DotSubDeductsSequentially) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 5.0, 6.0};
  double expect = 100.0;
  for (std::size_t i = 0; i < a.size(); ++i) expect -= a[i] * b[i];
  EXPECT_EQ(ref().dot_sub(100.0, a.data(), b.data(), a.size()), expect);
}

TEST(KernelReference, SigmoidMatchesStatsFormula) {
  for (const double z : {-800.0, -10.0, -1e-3, 0.0, 1e-3, 10.0, 800.0}) {
    double out = -1.0;
    ref().sigmoid(&z, &out, 1);
    // The overflow-safe two-branch form from common/stats.cpp.
    const double expect =
        z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                 : std::exp(z) / (1.0 + std::exp(z));
    EXPECT_EQ(out, expect) << "z=" << z;
  }
}

TEST(KernelReference, BinIndexMatchesHistogramBinOf) {
  const double lo = -1.0, hi = 3.0;
  const std::size_t n_bins = 8;
  const double width = (hi - lo) / static_cast<double>(n_bins);
  auto bin_of = [&](double v) -> std::uint32_t {
    if (v <= lo) return 0;
    if (v >= hi) return static_cast<std::uint32_t>(n_bins - 1);
    const auto b = static_cast<std::size_t>((v - lo) / width);
    return static_cast<std::uint32_t>(std::min(b, n_bins - 1));
  };
  std::vector<double> values = {-5.0, -1.0, -0.999, 0.0,  0.5, 1.0,
                                1.5,  2.0,  2.999,  3.0,  7.0, lo + width,
                                lo + 2 * width,     hi - 1e-12};
  std::vector<std::uint32_t> out(values.size(), 999);
  ref().bin_index(values.data(), values.size(), lo, hi, width, n_bins,
                  out.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(out[i], bin_of(values[i])) << "v=" << values[i];
  }
}

// ---------------------------------------------------------------------------
// Reference vs AVX2, per primitive, across sizes.
// ---------------------------------------------------------------------------

TEST(KernelAvx2Parity, DotWithinTolerance) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    const auto a = random_block(n, 11 + n);
    const auto b = random_block(n, 23 + n);
    const double r = ref().dot(1.25, a.data(), b.data(), n);
    const double v = avx().dot(1.25, a.data(), b.data(), n);
    EXPECT_NEAR(v, r, 1e-12 * (1.0 + std::abs(r))) << "n=" << n;
  }
}

TEST(KernelAvx2Parity, DotSubWithinTolerance) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    const auto a = random_block(n, 31 + n);
    const auto b = random_block(n, 47 + n);
    const double r = ref().dot_sub(2.5, a.data(), b.data(), n);
    const double v = avx().dot_sub(2.5, a.data(), b.data(), n);
    EXPECT_NEAR(v, r, 1e-12 * (1.0 + std::abs(r))) << "n=" << n;
  }
}

TEST(KernelAvx2Parity, SquaredL2WithinTolerance) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    const auto a = random_block(n, 5 + n);
    const auto b = random_block(n, 7 + n);
    const double r = ref().squared_l2(a.data(), b.data(), n);
    const double v = avx().squared_l2(a.data(), b.data(), n);
    EXPECT_NEAR(v, r, 1e-12 * (1.0 + std::abs(r))) << "n=" << n;
  }
}

TEST(KernelAvx2Parity, PairSumIndexedWithinTolerance) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    const std::size_t pool = 2 * n + 8;
    const auto a = random_block(pool, 13 + n);
    const auto b = random_block(pool, 17 + n);
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = (i * 7 + 3) % pool;
    double ra = 0, rb = 0, va = 0, vb = 0;
    ref().pair_sum_indexed(a.data(), b.data(), idx.data(), n, &ra, &rb);
    avx().pair_sum_indexed(a.data(), b.data(), idx.data(), n, &va, &vb);
    EXPECT_NEAR(va, ra, 1e-12 * (1.0 + std::abs(ra))) << "n=" << n;
    EXPECT_NEAR(vb, rb, 1e-12 * (1.0 + std::abs(rb))) << "n=" << n;
  }
}

TEST(KernelAvx2Parity, AxpyBitIdentical) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    const auto x = random_block(n, 3 + n);
    auto yr = random_block(n, 9 + n);
    auto yv = yr;
    ref().axpy(0.37, x.data(), yr.data(), n);
    avx().axpy(0.37, x.data(), yv.data(), n);
    EXPECT_EQ(yr, yv) << "n=" << n;  // elementwise: bitwise equal
  }
}

TEST(KernelAvx2Parity, VsubBitIdentical) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    const auto a = random_block(n, 19 + n);
    const auto b = random_block(n, 29 + n);
    std::vector<double> outr(n, -1.0), outv(n, -2.0);
    ref().vsub(outr.data(), a.data(), b.data(), n);
    avx().vsub(outv.data(), a.data(), b.data(), n);
    EXPECT_EQ(outr, outv) << "n=" << n;
  }
}

TEST(KernelAvx2Parity, GemvWithinTolerance) {
  SKIP_WITHOUT_AVX2();
  for (const std::size_t cols : {1u, 3u, 4u, 5u, 17u}) {
    const std::size_t rows = 9;
    const auto a = random_block(rows * cols, 41 + cols);
    const auto x = random_block(cols, 43 + cols);
    std::vector<double> outr(rows), outv(rows);
    ref().gemv(a.data(), rows, cols, x.data(), 0.75, outr.data());
    avx().gemv(a.data(), rows, cols, x.data(), 0.75, outv.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_NEAR(outv[r], outr[r], 1e-12 * (1.0 + std::abs(outr[r])))
          << "cols=" << cols << " r=" << r;
    }
  }
}

TEST(KernelAvx2Parity, SyrkRank1UpperBitIdentical) {
  SKIP_WITHOUT_AVX2();
  for (const std::size_t d : {1u, 2u, 4u, 5u, 9u, 16u}) {
    const std::size_t ld = d + 1;  // embedded in a larger (bordered) matrix
    const auto row = random_block(d, 53 + d);
    auto hr = random_block(ld * ld, 59 + d);
    auto hv = hr;
    ref().syrk_rank1_upper(hr.data(), ld, row.data(), d, 1.7);
    avx().syrk_rank1_upper(hv.data(), ld, row.data(), d, 1.7);
    EXPECT_EQ(hr, hv) << "d=" << d;  // one mul+add per entry: bitwise equal
  }
}

TEST(KernelAvx2Parity, SquaredL2RowsWithinTolerance) {
  SKIP_WITHOUT_AVX2();
  for (const std::size_t cols : {1u, 3u, 4u, 7u, 12u}) {
    const std::size_t rows = 11;
    const auto a = random_block(rows * cols, 61 + cols);
    const auto x = random_block(cols, 67 + cols);
    std::vector<double> outr(rows), outv(rows);
    ref().squared_l2_rows(a.data(), rows, cols, x.data(), outr.data());
    avx().squared_l2_rows(a.data(), rows, cols, x.data(), outv.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_NEAR(outv[r], outr[r], 1e-12 * (1.0 + std::abs(outr[r])))
          << "cols=" << cols << " r=" << r;
    }
  }
}

TEST(KernelAvx2Parity, HistAccumulateBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const std::size_t n_rows = 257;
  const std::size_t n_bins = 13;
  const auto grad = random_block(n_rows, 71);
  const auto hess = random_block(n_rows, 73);
  std::vector<std::uint16_t> bin_of(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) {
    bin_of[i] = static_cast<std::uint16_t>((i * 5) % n_bins);
  }
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n_rows; i += 2) rows.push_back(i);
  std::vector<double> br(n_bins * kHistBinStride, 0.0);
  std::vector<double> bv(n_bins * kHistBinStride, 0.0);
  ref().hist_accumulate(br.data(), bin_of.data(), rows.data(), rows.size(),
                        grad.data(), hess.data());
  avx().hist_accumulate(bv.data(), bin_of.data(), rows.data(), rows.size(),
                        grad.data(), hess.data());
  EXPECT_EQ(br, bv);  // serial per-bin adds in row order: bitwise equal
}

TEST(KernelAvx2Parity, HistSubtractBitIdentical) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    auto pr = random_block(n, 79 + n);
    auto pv = pr;
    const auto c = random_block(n, 83 + n);
    ref().hist_subtract(pr.data(), c.data(), n);
    avx().hist_subtract(pv.data(), c.data(), n);
    EXPECT_EQ(pr, pv) << "n=" << n;
  }
}

TEST(KernelAvx2Parity, BinIndexBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const double lo = 0.25, hi = 9.75;
  const std::size_t n_bins = 32;
  const double width = (hi - lo) / static_cast<double>(n_bins);
  // Dense sweep plus explicit boundary/out-of-range lanes in every vector
  // position (the AVX2 path patches ≤lo / ≥hi lanes via a mask).
  std::vector<double> values;
  std::uint64_t s = 97;
  for (std::size_t i = 0; i < 513; ++i) {
    values.push_back(lo + (hi - lo) * 0.5 * (1.0 + lcg(s) / 4.0));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    values.push_back(lo - 1.0 - static_cast<double>(i));
    values.push_back(hi + static_cast<double>(i));
    values.push_back(lo);
    values.push_back(hi);
  }
  std::vector<std::uint32_t> outr(values.size(), 111), outv(values.size(), 222);
  ref().bin_index(values.data(), values.size(), lo, hi, width, n_bins,
                  outr.data());
  avx().bin_index(values.data(), values.size(), lo, hi, width, n_bins,
                  outv.data());
  EXPECT_EQ(outr, outv);
}

TEST(KernelAvx2Parity, SigmoidWithinTolerance) {
  SKIP_WITHOUT_AVX2();
  for (const auto n : kSizes) {
    auto z = random_block(n, 89 + n);
    for (auto& v : z) v *= 8.0;  // cover the interesting logistic range
    std::vector<double> outr(n), outv(n);
    ref().sigmoid(z.data(), outr.data(), n);
    avx().sigmoid(z.data(), outv.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(outv[i], outr[i], 1e-12) << "n=" << n << " z=" << z[i];
    }
  }
  // Saturated tails: both backends must pin to {0, 1} within 1e-300.
  const std::vector<double> tails = {-800.0, -710.0, -708.0, 708.0, 800.0};
  std::vector<double> outr(tails.size()), outv(tails.size());
  ref().sigmoid(tails.data(), outr.data(), tails.size());
  avx().sigmoid(tails.data(), outv.data(), tails.size());
  for (std::size_t i = 0; i < tails.size(); ++i) {
    EXPECT_NEAR(outv[i], outr[i], 1e-300) << "z=" << tails[i];
  }
}

// ---------------------------------------------------------------------------
// NaN / inf propagation.
// ---------------------------------------------------------------------------

TEST(KernelSpecials, ReductionsPropagateNaNAndInf) {
  std::vector<const KernelOps*> tables = {&ref()};
  if (avx2_ready()) tables.push_back(&avx());
  for (const auto* t : tables) {
    const std::vector<double> a = {1.0, kNaN, 2.0, 3.0, 4.0};
    const std::vector<double> ones(a.size(), 1.0);
    EXPECT_TRUE(std::isnan(t->dot(0.0, a.data(), ones.data(), a.size())))
        << t->name;
    EXPECT_TRUE(std::isnan(t->dot_sub(0.0, a.data(), ones.data(), a.size())))
        << t->name;
    EXPECT_TRUE(std::isnan(t->squared_l2(a.data(), ones.data(), a.size())))
        << t->name;
    const std::vector<double> b = {1.0, kInf, 2.0, 3.0, 4.0};
    EXPECT_EQ(t->dot(0.0, b.data(), ones.data(), b.size()), kInf) << t->name;
    EXPECT_EQ(t->squared_l2(b.data(), ones.data(), b.size()), kInf)
        << t->name;
  }
}

TEST(KernelSpecials, ElementwisePropagateNaN) {
  std::vector<const KernelOps*> tables = {&ref()};
  if (avx2_ready()) tables.push_back(&avx());
  for (const auto* t : tables) {
    const std::vector<double> x = {kNaN, 1.0, 2.0, 3.0, kNaN};
    std::vector<double> y(x.size(), 0.0);
    t->axpy(1.0, x.data(), y.data(), x.size());
    EXPECT_TRUE(std::isnan(y[0]) && std::isnan(y[4])) << t->name;
    EXPECT_EQ(y[2], 2.0) << t->name;

    std::vector<double> s(x.size(), -1.0);
    t->sigmoid(x.data(), s.data(), x.size());
    EXPECT_TRUE(std::isnan(s[0]) && std::isnan(s[4])) << t->name;
    EXPECT_NEAR(s[1], 1.0 / (1.0 + std::exp(-1.0)), 1e-12) << t->name;
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ReferenceAlwaysAvailableAndDefaultNamed) {
  EXPECT_TRUE(backend_available(Backend::kReference));
  EXPECT_STREQ(reference_ops().name, "reference");
}

TEST(KernelDispatch, BestAvailableIsAvailable) {
  EXPECT_TRUE(backend_available(best_available()));
}

TEST(KernelDispatch, SetBackendSwitchesTableAndName) {
  set_backend(Backend::kReference);
  EXPECT_EQ(active_backend(), Backend::kReference);
  EXPECT_STREQ(backend_name(), "reference");
  EXPECT_EQ(&ops(), &reference_ops());
  if (avx2_ready()) {
    set_backend(Backend::kAvx2);
    EXPECT_EQ(active_backend(), Backend::kAvx2);
    EXPECT_STREQ(backend_name(), "avx2");
    EXPECT_EQ(&ops(), detail::avx2_ops());
    set_backend(Backend::kReference);
  }
}

TEST(KernelDispatch, UnavailableBackendIsRejected) {
  // A value outside the enum names no table on any host; selecting it must
  // throw and leave the active table alone. Hosts without AVX2 must also
  // refuse kAvx2.
  set_backend(Backend::kReference);
  const auto bogus = static_cast<Backend>(99);
  EXPECT_FALSE(backend_available(bogus));
  EXPECT_THROW(set_backend(bogus), std::invalid_argument);
  EXPECT_EQ(&ops(), &reference_ops());
  if (!avx2_ready()) {
    EXPECT_THROW(set_backend(Backend::kAvx2), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Backend-forced golden parity: every Table-3 method, reference vs AVX2.
// Reductions differ in the last ulp under AVX2, and boosted-tree fits can
// amplify a near-tie split flip, so the cross-backend contract is a
// tolerance on flag agreement, not bitwise equality: at least 85% of tasks
// must get the same flagged/never decision per method, and most methods are
// expected to agree exactly.
// ---------------------------------------------------------------------------

class KernelBackendGuard {
 public:
  ~KernelBackendGuard() { set_backend(Backend::kReference); }
};

TEST(KernelGoldenParity, AllMethodsAgreeAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  KernelBackendGuard guard;

  auto cfg = trace::GoogleLikeGenerator::google_defaults();
  cfg.min_tasks = 100;
  cfg.max_tasks = 130;
  const auto jobs = trace::GoogleLikeGenerator(cfg).generate(1);
  const auto& job = jobs.front();
  const auto tuned = core::google_tuned();

  std::size_t exact_methods = 0;
  const auto methods = core::all_predictors();
  ASSERT_EQ(methods.size(), 23u);
  for (const auto& method : core::all_predictors()) {
    const auto m = core::predictor_by_name(method.name, tuned);

    set_backend(Backend::kReference);
    auto ref_pred = m.make();
    const auto ref_run = eval::run_job(job, *ref_pred);

    set_backend(Backend::kAvx2);
    auto avx_pred = m.make();
    const auto avx_run = eval::run_job(job, *avx_pred);

    ASSERT_EQ(ref_run.flagged_at.size(), avx_run.flagged_at.size());
    std::size_t disagree = 0;
    for (std::size_t i = 0; i < ref_run.flagged_at.size(); ++i) {
      const bool fr = ref_run.flagged_at[i] != eval::kNeverFlagged;
      const bool fv = avx_run.flagged_at[i] != eval::kNeverFlagged;
      if (fr != fv) ++disagree;
    }
    const double rate = static_cast<double>(disagree) /
                        static_cast<double>(ref_run.flagged_at.size());
    EXPECT_LE(rate, 0.15) << method.name << ": " << disagree << "/"
                          << ref_run.flagged_at.size()
                          << " flag decisions diverged across backends";
    if (ref_run.flagged_at == avx_run.flagged_at) ++exact_methods;
  }
  // The sweep is only meaningful if cross-backend drift stays the exception:
  // the bulk of the surface must agree exactly, not merely within tolerance.
  EXPECT_GE(exact_methods, 12u);
}

}  // namespace
}  // namespace nurd::kernel
