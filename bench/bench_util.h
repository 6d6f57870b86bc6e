// Shared helpers for the reproduction benches: dataset construction with the
// per-dataset defaults and simple --flag=value argument parsing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.h"
#include "trace/generator.h"

namespace nurd::bench {

/// Which trace the bench replays.
enum class Dataset { kGoogle, kAlibaba };

inline const char* dataset_name(Dataset d) {
  return d == Dataset::kGoogle ? "Google" : "Alibaba";
}

/// Per-dataset tuned method configuration (§6 "Hyperparameter tuning").
inline core::RegistryConfig tuned_config(Dataset d) {
  return d == Dataset::kGoogle ? core::google_tuned()
                               : core::alibaba_tuned();
}

/// Generates the bench job set for a dataset with its paper-matched defaults.
inline std::vector<trace::Job> make_jobs(Dataset d, std::size_t count,
                                         std::uint64_t seed_offset = 0) {
  if (d == Dataset::kGoogle) {
    auto config = trace::GoogleLikeGenerator::google_defaults();
    config.seed += seed_offset;
    trace::GoogleLikeGenerator gen(config);
    return gen.generate(count);
  }
  auto config = trace::AlibabaLikeGenerator::alibaba_defaults();
  config.seed += seed_offset;
  trace::AlibabaLikeGenerator gen(config);
  return gen.generate(count);
}

/// Reads "--name=value" from argv; returns fallback when absent. A "--flag"
/// token without "=value" anywhere on the command line is a usage error
/// (exit 2): a bare "--check" must not silently leave a gate off.
inline std::string arg_string(int argc, char** argv, std::string_view name,
                              std::string fallback) {
  const std::string prefix = "--" + std::string(name) + "=";
  const char* found = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.starts_with("--") && arg.find('=') == std::string_view::npos) {
      std::fprintf(stderr, "%s: flag %s needs a value (--name=value)\n",
                   argv[0], argv[i]);
      std::exit(2);
    }
    if (found == nullptr && arg.starts_with(prefix)) {
      found = argv[i] + prefix.size();
    }
  }
  return found != nullptr ? std::string(found) : fallback;
}

/// Reads an integer flag.
inline long arg_long(int argc, char** argv, std::string_view name,
                     long fallback) {
  const auto s = arg_string(argc, argv, name, "");
  return s.empty() ? fallback : std::strtol(s.c_str(), nullptr, 10);
}

/// Splits a comma-separated flag value ("--methods=NURD,GBTR") into its
/// tokens.
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace nurd::bench
