#ifndef DURASSD_COMMON_RANDOM_H_
#define DURASSD_COMMON_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>

namespace durassd {

/// Deterministic, seedable PRNG (xoshiro256**). Every stochastic component
/// of the simulator takes an explicit Random so runs are reproducible.
class Random {
 public:
  explicit Random(uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 expansion of the seed into the 4-word state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) {
    assert(n > 0);
    return Next() % n;
  }

  /// Uniform in [lo, hi].
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    assert(lo <= hi);
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Zipfian generator over [0, n) using the Gray/Jim (YCSB-style) rejection
/// inversion approximation. theta in (0, 1); 0.99 matches YCSB defaults.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    assert(n > 0);
    zeta_n_ = Zeta(n, theta_);
    zeta2_ = Zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zeta_n_);
  }

  uint64_t Next(Random& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zeta_n_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

  /// Next(), then scrambled via a multiplicative hash so hot keys are spread
  /// across the key space (YCSB's "scrambled zipfian").
  uint64_t NextScrambled(Random& rng) const {
    const uint64_t z = Next(rng);
    return FnvHash(z) % n_;
  }

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    // Cap the exact summation: beyond 10M items the tail contribution is
    // approximated by the integral, keeping construction O(1)-ish.
    const uint64_t exact = n < 10'000'000ull ? n : 10'000'000ull;
    for (uint64_t i = 1; i <= exact; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    if (exact < n) {
      // Integral of x^-theta from `exact` to n.
      sum += (std::pow(static_cast<double>(n), 1.0 - theta) -
              std::pow(static_cast<double>(exact), 1.0 - theta)) /
             (1.0 - theta);
    }
    return sum;
  }

  static uint64_t FnvHash(uint64_t v) {
    uint64_t hash = 0xCBF29CE484222325ull;
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xFF;
      hash *= 0x100000001B3ull;
    }
    return hash;
  }

  uint64_t n_;
  double theta_;
  double zeta_n_;
  double zeta2_;
  double alpha_;
  double eta_;
};

}  // namespace durassd

#endif  // DURASSD_COMMON_RANDOM_H_
