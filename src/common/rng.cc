#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace craqr {

std::uint64_t SplitMix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  // Bit-identical to the classic stateful SplitMix64 loop: each word mixes
  // seed + k * golden-gamma.
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
    sm += 0x9E3779B97F4A7C15ULL;
  }
}

void Rng::FillUniform(Span<double> out) {
  for (double& v : out) {
    v = Uniform();
  }
}

void Rng::FillBernoulliMask(double p, Span<std::uint8_t> mask) {
  if (p <= 0.0) {
    for (std::uint8_t& m : mask) {
      m = 0;
    }
    return;
  }
  if (p >= 1.0) {
    for (std::uint8_t& m : mask) {
      m = 1;
    }
    return;
  }
  const std::uint64_t threshold = BernoulliThreshold(p);
  for (std::uint8_t& m : mask) {
    m = static_cast<std::uint8_t>(NextU64() < threshold);
  }
}

void Rng::FillBernoulliMask(Span<const double> probs,
                            Span<std::uint8_t> mask) {
  assert(probs.size() == mask.size());
  const std::size_t n = mask.size();
  for (std::size_t i = 0; i < n; ++i) {
    // The branches mirror the scalar Bernoulli's no-draw fast paths: a
    // degenerate row must not advance the stream or the remaining rows
    // would all decide with shifted draws.
    const double p = probs[i];
    if (p <= 0.0) {
      mask[i] = 0;
    } else if (p >= 1.0) {
      mask[i] = 1;
    } else {
      mask[i] = static_cast<std::uint8_t>(NextU64() < BernoulliThreshold(p));
    }
  }
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  assert(n > 0);
  // Rejection to remove modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v = NextU64();
  while (v >= limit) {
    v = NextU64();
  }
  return v % n;
}

std::uint64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    // Knuth multiplication method.
    const double threshold = std::exp(-mean);
    std::uint64_t k = 0;
    double product = Uniform();
    while (product > threshold) {
      ++k;
      product *= Uniform();
    }
    return k;
  }
  // PTRS transformed-rejection (Hoermann 1993).
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  while (true) {
    const double u = Uniform() - 0.5;
    const double v = Uniform();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) {
      return static_cast<std::uint64_t>(k);
    }
    if (k < 0.0 || (us < 0.013 && v > us)) {
      continue;
    }
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * std::log(mean) - mean - std::lgamma(k + 1.0)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u = Uniform();
  // Uniform() can return 0; avoid log(0).
  while (u <= 0.0) {
    u = Uniform();
  }
  return -std::log(u) / rate;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 0.0) {
    u1 = Uniform();
  }
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  assert(stddev >= 0.0);
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Pareto(double scale, double alpha) {
  assert(scale > 0.0 && alpha > 0.0);
  double u = Uniform();
  while (u <= 0.0) {
    u = Uniform();
  }
  return scale / std::pow(u, 1.0 / alpha);
}

void Rng::SampleWithoutReplacement(std::uint64_t n, std::uint64_t k,
                                   std::vector<std::uint64_t>* out) {
  assert(k <= n);
  // Floyd's algorithm: k draws. The values taken so far are exactly `out`,
  // so membership is a scan of it. For the per-cell samples the handler
  // asks for this beats a hash set: on an x86-64 VM the scan took 0.3 us
  // against 0.9 us at k = 16 and 2.0-2.7 us against 3.9 us at k = 96, and
  // stayed ahead up to k = 256.
  out->clear();
  out->reserve(k);
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = UniformInt(j + 1);
    // Every value taken before is below j, so j itself is always fresh.
    const bool fresh = std::find(out->begin(), out->end(), t) == out->end();
    out->push_back(fresh ? t : j);
  }
}

void Rng::SampleWithReplacement(std::uint64_t n, std::uint64_t k,
                                std::vector<std::uint64_t>* out) {
  assert(n > 0);
  out->clear();
  out->reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    out->push_back(UniformInt(n));
  }
}

Rng Rng::Fork() {
  return Rng(NextU64());
}

}  // namespace craqr
