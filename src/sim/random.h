#ifndef REFLEX_SIM_RANDOM_H_
#define REFLEX_SIM_RANDOM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace reflex::sim {

/**
 * Deterministic pseudo-random stream (xoshiro256** core, SplitMix64
 * seeding). Every stochastic simulation component owns a named stream
 * seeded from (global seed, component name), so experiments are exactly
 * reproducible and component behaviour is independent of the order in
 * which other components draw numbers.
 */
class Rng {
 public:
  /** Constructs a stream from a raw 64-bit seed. */
  explicit Rng(uint64_t seed);

  /** Constructs a stream derived from a global seed and a name. */
  Rng(uint64_t global_seed, std::string_view stream_name);

  // Next, NextDouble and NextBernoulli are defined inline: every
  // stochastic component draws on its hot path. Inlining cannot change
  // a result under -march or FMA contraction: Next is integer-only, and
  // NextDouble's one floating-point step (a 53-bit integer times 2^-53)
  // is exact, so fusing it into a caller's add rounds the same.

  /** Returns the next raw 64-bit value. */
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /** Returns a uniform double in [0, 1). */
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /** Returns a uniform integer in [0, bound). Requires bound > 0. */
  uint64_t NextBounded(uint64_t bound);

  /** Returns a uniform integer in [lo, hi]. Requires lo <= hi. */
  int64_t NextInRange(int64_t lo, int64_t hi);

  /** Returns an exponentially distributed double with the given mean. */
  double NextExponential(double mean);

  /**
   * Returns a lognormal sample whose *median* is `median` and whose
   * log-space standard deviation is `sigma`. Used for service-time
   * jitter: sigma = 0 returns `median` exactly.
   */
  double NextLognormal(double median, double sigma);

  /** Returns a standard normal sample (Box-Muller, cached pair). */
  double NextGaussian();

  /** Returns true with probability p. */
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /**
   * Returns a Zipf-distributed integer in [0, n) with exponent theta.
   * Uses the rejection-inversion method of Hormann/Derflinger so setup
   * is O(1) and draws are O(1) expected. The setup constants of the
   * last (n, theta) drawn are kept, so repeated draws of one pair skip
   * them; the values are the same either way.
   */
  uint64_t NextZipf(uint64_t n, double theta);

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
  /** NextZipf's constants for (zipf_n_, zipf_theta_); n 0 = none. */
  uint64_t zipf_n_ = 0;
  double zipf_theta_ = 0.0;
  double zipf_h_integral_x1_ = 0.0;
  double zipf_h_integral_n_ = 0.0;
  double zipf_s_ = 0.0;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_RANDOM_H_
