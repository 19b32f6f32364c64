#include "sim/random.h"

#include <cmath>

#include "sim/logging.h"

namespace reflex::sim {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashName(std::string_view name) {
  // FNV-1a, good enough to decorrelate stream names.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Numerically stable log1p(x)/x.
double Helper1(double x) {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

// Numerically stable expm1(x)/x.
double Helper2(double x) {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + x * 0.25));
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

Rng::Rng(uint64_t global_seed, std::string_view stream_name)
    : Rng(global_seed ^ HashName(stream_name)) {}

uint64_t Rng::NextBounded(uint64_t bound) {
  REFLEX_CHECK(bound > 0);
  // Lemire's multiply-shift with rejection to remove modulo bias.
  uint64_t threshold = (-bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  REFLEX_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextLognormal(double median, double sigma) {
  if (sigma <= 0.0) return median;
  return median * std::exp(sigma * NextGaussian());
}

uint64_t Rng::NextZipf(uint64_t n, double theta) {
  REFLEX_CHECK(n > 0);
  REFLEX_CHECK(theta > 0.0);
  // Rejection-inversion sampling (Hormann & Derflinger 1996), as used
  // by Apache Commons. O(1) per draw, no O(n) setup.
  auto h_integral = [theta](double x) {
    const double log_x = std::log(x);
    return Helper2((1.0 - theta) * log_x) * log_x;
  };
  auto h = [theta](double x) { return std::exp(-theta * std::log(x)); };
  auto h_integral_inverse = [theta](double x) {
    double t = x * (1.0 - theta);
    if (t < -1.0) t = -1.0;
    return std::exp(Helper1(t) * x);
  };

  if (n != zipf_n_ || theta != zipf_theta_) {
    zipf_n_ = n;
    zipf_theta_ = theta;
    zipf_h_integral_x1_ = h_integral(1.5) - 1.0;
    zipf_h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
    zipf_s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
  }
  const double h_integral_x1 = zipf_h_integral_x1_;
  const double h_integral_n = zipf_h_integral_n_;
  const double s = zipf_s_;

  for (;;) {
    const double u =
        h_integral_n + NextDouble() * (h_integral_x1 - h_integral_n);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n)) k = static_cast<double>(n);
    if (k - x <= s || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<uint64_t>(k) - 1;  // 0-based rank
    }
  }
}

}  // namespace reflex::sim
