// Deterministic random-number generation. Every stochastic component in the
// library takes an explicit Rng (or seed) — there is no global RNG state, so
// all experiments are reproducible from the seed printed by the benches.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace nurd {

/// Seedable RNG wrapper around std::mt19937_64 with the handful of draws the
/// library needs. Copyable; copies advance independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (mean 0, stddev 1) scaled/shifted to (mean, stddev).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal with the given log-space mu and sigma.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate lambda.
  double exponential(double lambda);

  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy tail for small alpha).
  double pareto(double xm, double alpha);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p);

  /// A random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// k indices sampled without replacement from {0, ..., n-1}; k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// k indices sampled with replacement from {0, ..., n-1}.
  std::vector<std::size_t> sample_with_replacement(std::size_t n,
                                                   std::size_t k);

  /// Derives an independent child RNG (for parallel-safe per-job streams).
  Rng fork();

 private:
  std::mt19937_64 engine_;
};

}  // namespace nurd
