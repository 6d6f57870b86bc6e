#include "pu/pu_en.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace nurd::pu {

PuElkanNoto::PuElkanNoto(PuEnParams params)
    : params_(params), clf_(ml::GradientBoosting::classifier(params.gbt)) {}

void PuElkanNoto::fit(const Matrix& labeled, const Matrix& unlabeled) {
  NURD_CHECK(labeled.rows() > 0, "PU-EN needs labeled examples");
  NURD_CHECK(unlabeled.rows() > 0, "PU-EN needs unlabeled examples");
  NURD_CHECK(labeled.cols() == unlabeled.cols(), "feature width mismatch");

  // Hold out part of the labeled set for the c estimate; train the
  // nontraditional classifier labeled(1) vs unlabeled(0) on the rest.
  Rng rng(params_.seed);
  const std::size_t n_lab = labeled.rows();
  const auto n_hold = std::min<std::size_t>(
      std::max<std::size_t>(
          1, static_cast<std::size_t>(params_.holdout_fraction *
                                      static_cast<double>(n_lab))),
      n_lab > 1 ? n_lab - 1 : 1);
  const auto perm = rng.permutation(n_lab);
  std::vector<std::size_t> hold(perm.begin(),
                                perm.begin() + static_cast<std::ptrdiff_t>(n_hold));
  std::vector<std::size_t> train_lab(perm.begin() + static_cast<std::ptrdiff_t>(n_hold),
                                     perm.end());
  if (train_lab.empty()) train_lab = hold;  // tiny labeled sets: reuse

  Matrix x(0, 0);
  std::vector<double> y;
  x.reserve_rows(train_lab.size() + unlabeled.rows());
  y.reserve(train_lab.size() + unlabeled.rows());
  for (auto i : train_lab) {
    x.push_row(labeled.row(i));
    y.push_back(1.0);
  }
  for (std::size_t i = 0; i < unlabeled.rows(); ++i) {
    x.push_row(unlabeled.row(i));
    y.push_back(0.0);
  }
  clf_.fit(x, y);

  // c = average classifier output on held-out labeled examples (estimator e1
  // from Elkan & Noto §3).
  double sum = 0.0;
  for (const double g : clf_.predict(labeled.select_rows(hold))) sum += g;
  c_ = std::clamp(sum / static_cast<double>(hold.size()), 1e-3, 1.0);
  fitted_ = true;
}

std::vector<double> PuElkanNoto::prob_labeled_class(const Matrix& rows) const {
  NURD_CHECK(fitted_, "model not fitted");
  auto prob = clf_.predict(rows);
  for (auto& p : prob) p = std::clamp(p / c_, 0.0, 1.0);
  return prob;
}

}  // namespace nurd::pu
