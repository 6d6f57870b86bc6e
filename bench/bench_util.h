// Shared helpers for the reproduction benches: dataset construction with the
// per-dataset defaults, method lookup, and simple --flag=value argument
// parsing. Every main declares the flags it accepts (accept_flags); any
// other flag, a bare "--flag", a malformed value or an unknown method name
// is a usage error (exit 2).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
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

/// The registry method `name` under `config`. An unknown name is a usage
/// error (exit 2) that prints the registry's message, which lists every
/// valid name.
inline core::NamedPredictor method_by_name(const char* program,
                                           const std::string& name,
                                           core::RegistryConfig config) {
  try {
    return core::predictor_by_name(name, std::move(config));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
    std::exit(2);
  }
}

/// Declares the flags a main accepts. Any "--name=value" whose name is not
/// in `accepted` is a usage error (exit 2): a misspelled "--chek=1" must
/// not silently leave a gate off.
inline void accept_flags(int argc, char** argv,
                         std::initializer_list<std::string_view> accepted) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    const auto eq = arg.find('=');
    const auto name = arg.substr(2, eq == std::string_view::npos
                                        ? std::string_view::npos
                                        : eq - 2);
    if (std::find(accepted.begin(), accepted.end(), name) != accepted.end()) {
      continue;
    }
    std::string valid;
    for (const auto flag : accepted) {
      valid += valid.empty() ? "--" : ", --";
      valid += flag;
    }
    std::fprintf(stderr, "%s: unknown flag %s (accepted: %s)\n", argv[0],
                 argv[i], valid.c_str());
    std::exit(2);
  }
}

namespace detail {
/// The value of "--name=value" in argv, or nullptr when absent. A "--flag"
/// token without "=value" anywhere on the command line is a usage error
/// (exit 2): a bare "--check" must not silently leave a gate off.
inline const char* find_arg(int argc, char** argv, std::string_view name) {
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
  return found;
}
}  // namespace detail

/// Reads "--name=value" from argv; returns fallback when absent.
inline std::string arg_string(int argc, char** argv, std::string_view name,
                              std::string fallback) {
  const char* value = detail::find_arg(argc, argv, name);
  return value != nullptr ? std::string(value) : fallback;
}

/// Reads a non-negative integer flag; returns fallback when absent. Any
/// other value ("--check=true", "--jobs=2x", "--jobs=-1", one that overflows
/// long) is a usage error (exit 2), so a typo cannot turn a gate off or
/// change the run's size.
inline long arg_long(int argc, char** argv, std::string_view name,
                     long fallback) {
  const char* value = detail::find_arg(argc, argv, name);
  if (value == nullptr) return fallback;
  const std::string_view s(value);
  long out = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (s.empty() || s.front() < '0' || s.front() > '9' || ec != std::errc{} ||
      end != s.data() + s.size()) {
    std::fprintf(stderr, "%s: --%s=%s is not an integer in [0, %ld]\n",
                 argv[0], std::string(name).c_str(), value,
                 std::numeric_limits<long>::max());
    std::exit(2);
  }
  return out;
}

/// Reads a positive count flag ("--jobs"); returns fallback when absent. A
/// value arg_long rejects, or 0, is a usage error (exit 2): an empty job set
/// has nothing to report.
inline std::size_t arg_count(int argc, char** argv, std::string_view name,
                             std::size_t fallback) {
  const long value = arg_long(argc, argv, name, static_cast<long>(fallback));
  if (value == 0) {
    std::fprintf(stderr, "%s: --%s must be at least 1\n", argv[0],
                 std::string(name).c_str());
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

/// Reads "--dataset=google|alibaba|both"; returns fallback's datasets when
/// absent. An unknown name is a usage error (exit 2), so a typo cannot run
/// nothing and exit 0.
inline std::vector<Dataset> arg_datasets(int argc, char** argv,
                                         std::string fallback) {
  const auto which = arg_string(argc, argv, "dataset", std::move(fallback));
  if (which == "google") return {Dataset::kGoogle};
  if (which == "alibaba") return {Dataset::kAlibaba};
  if (which == "both") return {Dataset::kGoogle, Dataset::kAlibaba};
  std::fprintf(stderr, "%s: unknown --dataset=%s (google|alibaba|both)\n",
               argv[0], which.c_str());
  std::exit(2);
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
