#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/span.h"

/// \file rng.h
/// \brief Deterministic, seedable random number generation.
///
/// Every stochastic component in CrAQR (operators, simulators, estimators)
/// draws from an `Rng` passed in by the caller, so entire simulations and
/// benchmarks are reproducible from a single seed.

namespace craqr {

/// \brief SplitMix64 finalizer: mixes one word into a well-distributed
/// 64-bit value. The single source of truth for seed-derivation chains
/// (Rng seeding, StreamFabricator::OperatorSeed).
std::uint64_t SplitMix64(std::uint64_t z);

/// \brief Counter-free 64-bit PRNG (xoshiro256**), seeded via SplitMix64.
///
/// Not thread-safe; use one Rng per thread or component.  The generator is
/// hand-rolled (rather than std::mt19937_64) so that streams are identical
/// across standard libraries and platforms.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed. Equal seeds yield equal
  /// streams on all platforms.
  explicit Rng(std::uint64_t seed = 0xC0FFEE123456789ULL);

  /// Returns the next raw 64-bit word. Inline: one draw per tuple is the
  /// innermost cost of the batch-native Thin/Flatten sweeps.
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a double uniformly distributed in [0, 1).
  double Uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Returns a double uniformly distributed in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Returns an integer uniformly distributed in [0, n). Requires n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  /// \brief The raw-word acceptance threshold of a Bernoulli(p) draw with
  /// 0 < p < 1: `NextU64() < BernoulliThreshold(p)` decides exactly like
  /// the historical `Uniform() < p`.
  ///
  /// Why they are identical: `Uniform()` is `k * 2^-53` with
  /// `k = NextU64() >> 11`, and `k * 2^-53` is exact (k < 2^53 fits a
  /// double mantissa), so `Uniform() < p  <=>  k < p * 2^53  <=>
  /// k < ceil(p * 2^53)` (k integral; `p * 2^53` is itself exact — a pure
  /// exponent shift). Shifting that integer bound back by the 11 discarded
  /// low bits gives a threshold comparable against the raw word:
  /// `k < K  <=>  NextU64() < (K << 11)`. Both the scalar Bernoulli and
  /// the batch FillBernoulliMask sweeps compare through this one
  /// function, so the scalar and vector paths consume the stream — and
  /// decide — identically *by construction* (pinned in
  /// tests/ops_vectorized_test.cc).
  static std::uint64_t BernoulliThreshold(double p) {
    // 2^53 = 9007199254740992; p in (0, 1) keeps K <= 2^53 - 1, so the
    // shift cannot overflow.
    const double bound = std::ceil(p * 9007199254740992.0);
    if (std::isnan(bound)) {
      // NaN p slips past both degenerate guards; casting NaN would be UB.
      // A zero threshold never accepts while the caller still consumes
      // its draw — exactly the historical `Uniform() < NaN` behaviour.
      return 0;
    }
    return static_cast<std::uint64_t>(bound) << 11;
  }

  /// Returns true with probability p (clamped to [0, 1]). Degenerate
  /// probabilities decide without consuming a draw.
  bool Bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return NextU64() < BernoulliThreshold(p);
  }

  /// \brief Fills `out` with successive `Uniform()` draws — one batch
  /// call in place of a per-row generator call in the hot sweeps. Draw
  /// order is exactly the scalar loop's.
  void FillUniform(Span<double> out);

  /// \brief Fills `mask` with successive Bernoulli(p) decisions
  /// (1 = success), consuming draws exactly as the equivalent scalar loop
  /// would: one `NextU64()` per row for 0 < p < 1, and *zero* draws when
  /// p is degenerate (<= 0 fills zeros, >= 1 fills ones) — matching
  /// `Bernoulli`'s no-draw fast paths row for row. The non-degenerate
  /// sweep is branch-free: one raw word against one precomputed
  /// threshold per row.
  void FillBernoulliMask(double p, Span<std::uint8_t> mask);

  /// \brief Per-row-probability variant: `mask[i]` decides with
  /// `probs[i]`, again consuming draws exactly like a scalar
  /// `Bernoulli(probs[i])` loop (degenerate rows draw nothing). This is
  /// the F operator's batch sweep, where clamped violation rows
  /// (p == 1) must not advance the stream. Requires
  /// `probs.size() == mask.size()`.
  void FillBernoulliMask(Span<const double> probs, Span<std::uint8_t> mask);

  /// Returns a Poisson-distributed count with the given mean >= 0.
  /// Uses Knuth multiplication for small means and the PTRS transformed
  /// rejection method for large means.
  std::uint64_t Poisson(double mean);

  /// Returns an Exponential(rate) variate. Requires rate > 0.
  double Exponential(double rate);

  /// Returns a standard normal variate (Box-Muller with caching).
  double Normal();

  /// Returns a Normal(mean, stddev) variate. Requires stddev >= 0.
  double Normal(double mean, double stddev);

  /// Returns a LogNormal variate whose logarithm is Normal(mu, sigma).
  double LogNormal(double mu, double sigma);

  /// Returns a Pareto(scale, alpha) variate, used for Levy-flight step
  /// lengths. Requires scale > 0 and alpha > 0.
  double Pareto(double scale, double alpha);

  /// \brief Samples k distinct indices from [0, n) without replacement
  /// (Floyd's algorithm) into `out`, replacing its contents. Requires
  /// k <= n. Membership is checked by scanning `out`, so a call makes
  /// O(k^2) comparisons and no allocation once `out` has held k values.
  void SampleWithoutReplacement(std::uint64_t n, std::uint64_t k,
                                std::vector<std::uint64_t>* out);

  /// \brief Samples k indices from [0, n) with replacement into `out`,
  /// replacing its contents. Requires n > 0.
  void SampleWithReplacement(std::uint64_t n, std::uint64_t k,
                             std::vector<std::uint64_t>* out);

  /// \brief Derives an independent child generator; used to give each
  /// component its own stream from a master seed.
  Rng Fork();

  /// \brief The generator's complete mutable state — the four xoshiro
  /// words plus the Box-Muller normal cache. Saving and restoring this
  /// struct resumes the stream exactly where it left off (checkpoint /
  /// restore of live operators).
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  /// Captures the current state.
  State Save() const {
    State st;
    st.s[0] = state_[0];
    st.s[1] = state_[1];
    st.s[2] = state_[2];
    st.s[3] = state_[3];
    st.cached_normal = cached_normal_;
    st.has_cached_normal = has_cached_normal_;
    return st;
  }

  /// Overwrites the generator with a previously saved state.
  void Restore(const State& st) {
    state_[0] = st.s[0];
    state_[1] = st.s[1];
    state_[2] = st.s[2];
    state_[3] = st.s[3];
    cached_normal_ = st.cached_normal;
    has_cached_normal_ = st.has_cached_normal;
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace craqr
