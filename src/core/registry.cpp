#include "core/registry.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "core/baselines.h"
#include "core/nurd.h"
#include "outlier/density_detectors.h"
#include "outlier/iforest.h"
#include "outlier/knn_detectors.h"
#include "outlier/ocsvm.h"
#include "outlier/statistical_detectors.h"
#include "outlier/subspace_detectors.h"

namespace nurd::core {

namespace {

ml::GbtParams gbt_params(const RegistryConfig& config) {
  ml::GbtParams p;
  p.n_rounds = config.gbt_rounds;
  p.warm_rate_factor = config.gbt_warm_rate;
  return p;
}

template <typename D, typename... Args>
NamedPredictor outlier_entry(const std::string& name,
                             const RegistryConfig& config, Args... args) {
  const double contamination = config.contamination;
  return {name, [name, contamination, args...]() {
            return std::make_unique<OutlierPredictor>(
                name,
                [args...]() -> std::unique_ptr<outlier::Detector> {
                  return std::make_unique<D>(args...);
                },
                contamination);
          }};
}

}  // namespace

RegistryConfig google_tuned() {
  RegistryConfig c;
  c.nurd_alpha = 0.25;
  c.nurd_gbt_rounds = 80;
  c.nurd_tree_depth = 3;
  return c;
}

RegistryConfig alibaba_tuned() {
  RegistryConfig c;
  c.nurd_alpha = 0.32;
  c.nurd_gbt_rounds = 40;
  c.nurd_tree_depth = 4;
  // The d=4 Alibaba schema concentrates each continuation tree's correction
  // on broad feature regions; damping the warm step keeps the incremental
  // path's flags tracking the full-refit reference (bench_refit).
  c.gbt_warm_rate = 0.75;
  return c;
}

std::vector<NamedPredictor> all_predictors(RegistryConfig config) {
  std::vector<NamedPredictor> out;

  // Supervised.
  out.push_back({"GBTR", [config]() {
                   return std::make_unique<GbtrPredictor>(gbt_params(config),
                                                          config.refit);
                 }});

  // Outlier detection (Table 3 order).
  out.push_back(outlier_entry<outlier::AbodDetector>("ABOD", config));
  out.push_back(outlier_entry<outlier::CblofDetector>("CBLOF", config));
  out.push_back(outlier_entry<outlier::HbosDetector>("HBOS", config));
  out.push_back(outlier_entry<outlier::IForestDetector>("IFOREST", config));
  out.push_back(outlier_entry<outlier::KnnDetector>("KNN", config));
  out.push_back(outlier_entry<outlier::LofDetector>("LOF", config));
  out.push_back(outlier_entry<outlier::McdDetector>("MCD", config));
  out.push_back(outlier_entry<outlier::OcsvmDetector>("OCSVM", config));
  out.push_back(outlier_entry<outlier::PcaDetector>("PCA", config));
  out.push_back(outlier_entry<outlier::SosDetector>("SOS", config));
  out.push_back(outlier_entry<outlier::LscpDetector>("LSCP", config));
  out.push_back(outlier_entry<outlier::CofDetector>("COF", config));
  out.push_back(outlier_entry<outlier::SodDetector>("SOD", config));
  out.push_back({"XGBOD", [config]() {
                   outlier::XgbodParams p;
                   p.gbt = gbt_params(config);
                   return std::make_unique<XgbodPredictor>(
                       p, config.contamination);
                 }});

  // Positive-unlabeled.
  out.push_back({"PU-EN", [config]() {
                   pu::PuEnParams p;
                   p.gbt = gbt_params(config);
                   return std::make_unique<PuEnPredictor>(p);
                 }});
  out.push_back({"PU-BG", []() {
                   return std::make_unique<PuBgPredictor>(pu::PuBgParams{});
                 }});

  // Censored and survival regression.
  out.push_back({"Tobit", []() {
                   return std::make_unique<TobitPredictor>(
                       censored::TobitParams{});
                 }});
  out.push_back({"Grabit", [config]() {
                   return std::make_unique<GrabitPredictor>(gbt_params(config));
                 }});
  out.push_back({"CoxPH", []() {
                   return std::make_unique<CoxPredictor>(censored::CoxParams{});
                 }});

  // Systems.
  out.push_back({"Wrangler", []() {
                   return std::make_unique<WranglerPredictor>(ml::SvmParams{});
                 }});

  // Ours.
  for (auto& np : nurd_predictors(config)) out.push_back(std::move(np));
  return out;
}

std::vector<NamedPredictor> nurd_predictors(RegistryConfig config) {
  const auto nurd_params = [config](bool calibrate) {
    NurdParams p;
    p.calibrate = calibrate;
    p.alpha = config.nurd_alpha;
    p.epsilon = config.nurd_epsilon;
    p.gbt.n_rounds = config.nurd_gbt_rounds;
    p.gbt.tree.max_depth = config.nurd_tree_depth;
    p.gbt.warm_rate_factor = config.gbt_warm_rate;
    p.propensity.l2 = config.nurd_propensity_l2;
    p.refit = config.refit;
    return p;
  };
  std::vector<NamedPredictor> out;
  out.push_back({"NURD-NC", [nurd_params]() {
                   return std::make_unique<NurdPredictor>(nurd_params(false));
                 }});
  out.push_back({"NURD", [nurd_params]() {
                   return std::make_unique<NurdPredictor>(nurd_params(true));
                 }});
  return out;
}

NamedPredictor predictor_by_name(const std::string& name,
                                 RegistryConfig config) {
  auto all = all_predictors(config);
  for (auto& np : all) {
    if (np.name == name) return np;
  }
  // Unknown: name every valid Table-3 method in the error so the caller (a
  // typo'd --method flag, usually) learns the accepted spelling.
  std::string valid;
  for (const auto& np : all) {
    if (!valid.empty()) valid += ", ";
    valid += np.name;
  }
  throw std::invalid_argument("unknown predictor \"" + name +
                              "\" — valid Table-3 names: " + valid);
}

}  // namespace nurd::core
