// Kernel-dispatch layer tests: per-primitive reference-vs-AVX2 parity
// (including remainder lanes, lengths that are not a multiple of the vector
// width, and NaN/inf propagation), the AVX2 table's layout, the CPUID
// dispatch rule, and a per-table rerun of the golden-parity protocol over
// every Table-3 method. Every table must be BITWISE identical to the
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
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

// The CPUID rule ops() follows: the AVX2 table exactly when the CPU has AVX2.
bool avx2_ready() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// Fetches both tables without touching the global dispatch state.
const KernelOps& ref() { return reference_ops(); }
const KernelOps& avx() { return *detail::avx2_ops(); }

#define SKIP_WITHOUT_AVX2()                                       \
  if (!avx2_ready()) {                                            \
    GTEST_SKIP() << "AVX2 not available on this build/CPU";       \
  }

// ---------------------------------------------------------------------------
// Reference-table semantics (golden path): spot-check the contract the
// call sites rely on, independent of any accelerated table.
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

// One lane's node, as split_scan4 reads it: row r's value is x[r·stride].
SplitScan4 one_feature_scan(const std::vector<double>& x,
                            const std::vector<std::size_t>& order,
                            const std::vector<double>& grad,
                            const std::vector<double>& hess,
                            double min_child_weight) {
  SplitScan4 scan{};
  for (std::size_t k = 0; k < 4; ++k) {
    scan.order[k] = order.data();
    scan.x[k] = x.data();
  }
  scan.x_stride = 1;
  scan.n = order.size();
  scan.grad = grad.data();
  scan.hess = hess.data();
  for (const auto r : order) {
    scan.g_total += grad[r];
    scan.h_total += hess[r];
  }
  scan.lambda = 1.0;
  scan.parent_obj = -0.5 * scan.g_total * scan.g_total /
                    (scan.h_total + scan.lambda);
  scan.min_child_weight = min_child_weight;
  return scan;
}

TEST(KernelReference, SplitScan4SkipsTiesAndKeepsFirstStrictMaximum) {
  const std::vector<std::size_t> order = {0, 1, 2, 3};
  const std::vector<double> hess(4, 1.0);
  double gain[4];
  std::size_t pos[4];

  // No boundary between the equal values at positions 0 and 1.
  const std::vector<double> x = {1.0, 1.0, 2.0, 3.0};
  const std::vector<double> grad = {-1.0, -1.0, 1.0, 1.0};
  ref().split_scan4(one_feature_scan(x, order, grad, hess, 0.0), gain, pos);
  EXPECT_EQ(gain[0], 4.0 / 3.0);
  EXPECT_EQ(pos[0], 1u);

  // Positions 0 and 2 tie exactly at 0.375; the first one wins.
  const std::vector<double> x_tie = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> grad_tie = {1.0, -1.0, 1.0, -1.0};
  ref().split_scan4(one_feature_scan(x_tie, order, grad_tie, hess, 0.0), gain,
                    pos);
  EXPECT_EQ(gain[3], 0.375);
  EXPECT_EQ(pos[3], 0u);

  // min_child_weight blocks every candidate: −inf at position 0.
  ref().split_scan4(one_feature_scan(x, order, grad, hess, 2.5), gain, pos);
  EXPECT_EQ(gain[1], -kInf);
  EXPECT_EQ(pos[1], 0u);
}

// Lane k of a hist_split4 input: (G, H, count) per bin, pad 0.
std::vector<double> hist_bins(
    const std::vector<std::array<double, 3>>& g_h_count) {
  std::vector<double> bins;
  for (const auto& [g, h, count] : g_h_count) {
    bins.insert(bins.end(), {g, h, count, 0.0});
  }
  return bins;
}

TEST(KernelReference, HistSplit4SkipsEmptySidesAndKeepsFirstStrictMaximum) {
  // Lane 0: bin 0 is empty (count 0) but carries a residue in G, as a
  // subtracted histogram's can. Splitting after it would score 40, yet an
  // empty left child is no split; the candidate after bin 1 (4/3) wins.
  const auto empty_prefix =
      hist_bins({{10.0, 0.0, 0.0}, {-2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}});
  // Lane 1: the prefix holds every row after bin 1, which ends the lane's
  // candidates; the residue bins after it would score 60.
  const auto full_prefix = hist_bins(
      {{1.0, 2.0, 2.0}, {-1.0, 2.0, 2.0}, {10.0, 0.0, 0.0}, {-10.0, 0.0, 0.0}});
  // Lane 2: the splits after bins 0 and 2 tie exactly at 0.375; the first
  // one wins.
  const auto tie = hist_bins(
      {{1.0, 1.0, 1.0}, {-1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {-1.0, 1.0, 1.0}});
  HistSplit4 split{};
  split.bins[0] = empty_prefix.data();
  split.bins[1] = full_prefix.data();
  split.bins[2] = tie.data();
  split.bins[3] = nullptr;  // nb 1: never read
  split.nb[0] = 3;
  split.nb[1] = 4;
  split.nb[2] = 4;
  split.nb[3] = 1;
  split.n_node = 4.0;
  split.lambda = 1.0;
  split.min_child_weight = 0.0;
  double gain[4];
  std::size_t bin[4];

  // Each lane's totals: lane 0's, then lane 1's and lane 2's (both 0, 4).
  split.g_total = 10.0;
  split.h_total = 4.0;
  split.parent_obj = -0.5 * 10.0 * 10.0 / 5.0;
  ref().hist_split4(split, gain, bin);
  EXPECT_EQ(bin[0], 1u);
  EXPECT_EQ(gain[0],
            -10.0 - (-0.5 * 8.0 * 8.0 / 3.0) - (-0.5 * 2.0 * 2.0 / 3.0));
  EXPECT_EQ(gain[3], -kInf);
  EXPECT_EQ(bin[3], 0u);

  split.g_total = 0.0;
  split.parent_obj = 0.0;
  ref().hist_split4(split, gain, bin);
  EXPECT_EQ(bin[1], 0u);
  EXPECT_EQ(gain[1], 1.0 / 3.0);
  EXPECT_EQ(bin[2], 0u);
  EXPECT_EQ(gain[2], 0.375);

  // min_child_weight blocks every candidate: −inf at bin 0.
  split.min_child_weight = 5.0;
  ref().hist_split4(split, gain, bin);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(gain[k], -kInf) << "lane " << k;
    EXPECT_EQ(bin[k], 0u) << "lane " << k;
  }
}

// ---------------------------------------------------------------------------
// Reference vs AVX2, per primitive, across sizes.
// ---------------------------------------------------------------------------

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

TEST(KernelAvx2Parity, SplitScan4BitIdentical) {
  SKIP_WITHOUT_AVX2();
  // Six columns of a row-major block: real values, small integers (ties),
  // one all-equal column, two values, a coarse grid, and real values with
  // NaNs, left in node order (a NaN has no sorted place, and the reference
  // scores every step whose `x_next <= x` is false). The node is every
  // other row, so rows outside it sit between the ones the scan reads.
  constexpr std::size_t kCols = 6;
  std::uint64_t s = 101;
  for (std::size_t n = 2; n <= 300; ++n) {
    const std::size_t n_rows = 2 * n;
    std::vector<double> x(n_rows * kCols);
    std::vector<double> grad(n_rows), hess(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      x[r * kCols + 0] = lcg(s);
      x[r * kCols + 1] = static_cast<double>((r * 7) % 4);
      x[r * kCols + 2] = 2.5;
      x[r * kCols + 3] = lcg(s) > 0.0 ? 1.0 : -1.0;
      x[r * kCols + 4] = static_cast<double>(static_cast<int>(lcg(s)));
      x[r * kCols + 5] = r % 5 == 2 ? kNaN : lcg(s);
      grad[r] = lcg(s);
      // Unit Hessians (squared loss) make exact gain ties common.
      hess[r] = n % 2 == 0 ? 1.0 : 0.25 + std::abs(lcg(s));
    }
    std::vector<std::size_t> rows;
    for (std::size_t r = 1; r < n_rows; r += 2) rows.push_back(r);
    std::vector<std::vector<std::size_t>> order(kCols, rows);
    for (std::size_t f = 0; f + 1 < kCols; ++f) {
      std::stable_sort(order[f].begin(), order[f].end(),
                       [&](std::size_t a, std::size_t b) {
                         return x[a * kCols + f] < x[b * kCols + f];
                       });
    }
    double g_total = 0.0, h_total = 0.0;
    for (const auto r : rows) {
      g_total += grad[r];
      h_total += hess[r];
    }
    // Lane sets: four distinct features, a group that repeats the last
    // feature in its unused lanes, and repeats across all lanes.
    const std::vector<std::vector<std::size_t>> lane_sets = {
        {0, 1, 2, 3}, {4, 4, 4, 4}, {1, 2, 1, 2}, {3, 0, 5, 4}};
    // Ordinary, and large enough to block every candidate.
    for (const double min_child_weight : {1.0, 1e9}) {
      for (const auto& lanes : lane_sets) {
        SplitScan4 scan{};
        for (std::size_t k = 0; k < 4; ++k) {
          scan.order[k] = order[lanes[k]].data();
          scan.x[k] = x.data() + lanes[k];
        }
        scan.x_stride = kCols;
        scan.n = n;
        scan.grad = grad.data();
        scan.hess = hess.data();
        scan.g_total = g_total;
        scan.h_total = h_total;
        scan.lambda = 1.0;
        scan.parent_obj = -0.5 * g_total * g_total / (h_total + 1.0);
        scan.min_child_weight = min_child_weight;
        double gain_r[4], gain_v[4];
        std::size_t pos_r[4], pos_v[4];
        ref().split_scan4(scan, gain_r, pos_r);
        avx().split_scan4(scan, gain_v, pos_v);
        for (std::size_t k = 0; k < 4; ++k) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(gain_r[k]),
                    std::bit_cast<std::uint64_t>(gain_v[k]))
              << "n=" << n << " lane=" << k << " f=" << lanes[k];
          EXPECT_EQ(pos_r[k], pos_v[k])
              << "n=" << n << " lane=" << k << " f=" << lanes[k];
          if (lanes[k] == 2 || min_child_weight > 1.0) {
            EXPECT_EQ(gain_r[k], -kInf) << "n=" << n << " lane=" << k;
          }
        }
      }
    }
  }
}

TEST(KernelAvx2Parity, HistSplit4BitIdentical) {
  SKIP_WITHOUT_AVX2();
  // Each trial is one histogram node: the parent rows a random sibling did
  // not take, with every lane's histogram formed as the tree forms a larger
  // child's (parent − sibling), so a bin the sibling emptied keeps a
  // rounding residue in G and H beside its exact count of 0. Lanes have
  // unequal bin counts, among them nb = 0, 1 and 2; on every fifth trial
  // lane 0 puts every row in one bin.
  const std::vector<std::array<std::size_t, 4>> lane_nb = {
      {2, 2, 2, 2}, {1, 2, 7, 64}, {64, 3, 1, 2}, {5, 0, 0, 0},
      {33, 17, 2, 9}, {1, 1, 1, 1}, {3, 64, 64, 40}};
  std::uint64_t s = 202;
  for (std::size_t trial = 0; trial < 350; ++trial) {
    const auto& nb = lane_nb[trial % lane_nb.size()];
    const std::size_t n_parent = 1 + (trial * 37) % 300;
    std::vector<double> grad(n_parent), hess(n_parent);
    std::vector<std::size_t> parent_rows, sibling_rows, node_rows;
    for (std::size_t r = 0; r < n_parent; ++r) {
      grad[r] = lcg(s);
      hess[r] = trial % 2 == 0 ? 1.0 : 0.25 + std::abs(lcg(s));
      parent_rows.push_back(r);
      (lcg(s) > 1.0 ? sibling_rows : node_rows).push_back(r);
    }
    std::array<std::vector<double>, 4> hist;
    HistSplit4 split{};
    for (std::size_t k = 0; k < 4; ++k) {
      std::vector<std::uint16_t> bin_of_row(n_parent, 0);
      for (auto& b : bin_of_row) {
        const bool one_bin = k == 0 && trial % 5 == 0;
        b = one_bin || nb[k] == 0
                ? 0
                : static_cast<std::uint16_t>(
                      static_cast<std::uint64_t>(std::abs(lcg(s)) * 1e6) %
                      nb[k]);
      }
      hist[k].assign(std::max<std::size_t>(nb[k], 1) * kHistBinStride, 0.0);
      std::vector<double> sibling(hist[k].size(), 0.0);
      ref().hist_accumulate(hist[k].data(), bin_of_row.data(),
                            parent_rows.data(), parent_rows.size(),
                            grad.data(), hess.data());
      ref().hist_accumulate(sibling.data(), bin_of_row.data(),
                            sibling_rows.data(), sibling_rows.size(),
                            grad.data(), hess.data());
      ref().hist_subtract(hist[k].data(), sibling.data(), hist[k].size());
      split.bins[k] = nb[k] == 0 ? nullptr : hist[k].data();
      split.nb[k] = nb[k];
    }
    split.n_node = static_cast<double>(node_rows.size());
    for (const auto r : node_rows) {
      split.g_total += grad[r];
      split.h_total += hess[r];
    }
    split.lambda = 1.0;
    split.parent_obj =
        -0.5 * split.g_total * split.g_total / (split.h_total + 1.0);
    for (const double min_child_weight : {0.0, 1.0, 1e9}) {
      split.min_child_weight = min_child_weight;
      double gain_r[4], gain_v[4];
      std::size_t bin_r[4], bin_v[4];
      ref().hist_split4(split, gain_r, bin_r);
      avx().hist_split4(split, gain_v, bin_v);
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gain_r[k]),
                  std::bit_cast<std::uint64_t>(gain_v[k]))
            << "trial=" << trial << " lane=" << k << " nb=" << nb[k];
        EXPECT_EQ(bin_r[k], bin_v[k])
            << "trial=" << trial << " lane=" << k << " nb=" << nb[k];
        if (nb[k] < 2 || min_child_weight > 1.0) {
          EXPECT_EQ(gain_r[k], -kInf) << "trial=" << trial << " lane=" << k;
        }
      }
    }
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
// Table layout and dispatch.
// ---------------------------------------------------------------------------

// A new KernelOps member must be classified in
// Avx2TableSwapsOnlyBitIdenticalPrimitives below before this compiles again.
static_assert(sizeof(KernelOps) ==
              sizeof(const char*) + 15 * sizeof(void (*)()));

TEST(KernelDispatch, TablesAreNamed) {
  EXPECT_STREQ(reference_ops().name, "reference");
  if (detail::avx2_ops() != nullptr) {
    EXPECT_STREQ(detail::avx2_ops()->name, "avx2");
  }
}

TEST(KernelDispatch, Avx2TableSwapsOnlyBitIdenticalPrimitives) {
  if (detail::avx2_ops() == nullptr) {
    GTEST_SKIP() << "AVX2 table compiled out of this build";
  }
  const KernelOps& r = ref();
  const KernelOps& a = avx();
  // Reductions and sigmoid have no vector form that keeps the reference's
  // operation order, so the AVX2 table must share the reference entries.
  EXPECT_EQ(a.dot, r.dot);
  EXPECT_EQ(a.dot_sub, r.dot_sub);
  EXPECT_EQ(a.squared_l2, r.squared_l2);
  EXPECT_EQ(a.pair_sum_indexed, r.pair_sum_indexed);
  EXPECT_EQ(a.gemv, r.gemv);
  EXPECT_EQ(a.squared_l2_rows, r.squared_l2_rows);
  EXPECT_EQ(a.sigmoid, r.sigmoid);
  // axpy, vsub, syrk_rank1_upper, hist_accumulate, hist_subtract and
  // bin_index may be swapped, and so may split_scan4 and hist_split4, whose
  // lanes are features each running the reference's scalar scan: the
  // *BitIdentical tests above pin all eight.
}

TEST(KernelDispatch, OpsFollowsCpuid) {
  const KernelOps* expect = avx2_ready() ? detail::avx2_ops() : &ref();
  ASSERT_NE(expect, nullptr);
  EXPECT_EQ(&ops(), expect);
  EXPECT_STREQ(backend_name(), avx2_ready() ? "avx2" : "reference");
}

// ---------------------------------------------------------------------------
// Per-table golden parity: every Table-3 method under the reference table
// and under the AVX2 table must flag the same tasks at the same checkpoints.
// ---------------------------------------------------------------------------

/// Restores the CPU's table when a test that switched tables ends.
class KernelTableGuard {
 public:
  ~KernelTableGuard() { detail::use_table(cpu_); }

 private:
  const KernelOps& cpu_ = ops();
};

TEST(KernelGoldenParity, AllMethodsAgreeAcrossBackends) {
  SKIP_WITHOUT_AVX2();
  KernelTableGuard guard;

  auto cfg = trace::GoogleLikeGenerator::google_defaults();
  cfg.min_tasks = 100;
  cfg.max_tasks = 130;
  const auto jobs = trace::GoogleLikeGenerator(cfg).generate(1);
  const auto& job = jobs.front();
  const auto tuned = core::google_tuned();

  const auto methods = core::all_predictors();
  ASSERT_EQ(methods.size(), 23u);
  for (const auto& method : methods) {
    const auto m = core::predictor_by_name(method.name, tuned);

    detail::use_table(ref());
    ASSERT_EQ(&ops(), &ref());
    auto ref_pred = m.make();
    const auto ref_run = eval::run_job(job, *ref_pred);

    detail::use_table(avx());
    ASSERT_EQ(&ops(), &avx());
    auto avx_pred = m.make();
    const auto avx_run = eval::run_job(job, *avx_pred);

    EXPECT_EQ(ref_run.flagged_at, avx_run.flagged_at) << method.name;
  }
}

}  // namespace
}  // namespace nurd::kernel
