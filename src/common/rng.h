/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 * A self-contained xoshiro256** implementation so results are reproducible
 * across standard libraries and platforms.
 */

#ifndef TA_COMMON_RNG_H
#define TA_COMMON_RNG_H

#include <cstdint>

namespace ta {

/**
 * xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can
 * be plugged into <random> distributions, but the workload generators in
 * this repo use the explicit helpers below for cross-platform determinism.
 * The per-draw helpers are inline: weight synthesis walks millions of
 * draws, and a call per draw would cost more than the draw.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    result_type operator()() { return next(); }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1): 53 high-quality bits. */
    double
    uniformDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli with probability p of returning true. */
    bool bernoulli(double p) { return uniformDouble() < p; }

    /** An accepted point of the polar method: (u, v) inside the unit
     *  disc, s = u^2 + v^2 in (0, 1). */
    struct PolarPoint
    {
        double u, v, s;
    };

    /**
     * The accept/reject half of the polar method: every uniform a fresh
     * gaussian() pair consumes, and nothing else. u * polarScale(s) and
     * v * polarScale(s) are the pair's two standard normals.
     */
    PolarPoint
    polarPoint()
    {
        PolarPoint p;
        do {
            p.u = 2.0 * uniformDouble() - 1.0;
            p.v = 2.0 * uniformDouble() - 1.0;
            p.s = p.u * p.u + p.v * p.v;
        } while (p.s >= 1.0 || p.s == 0.0);
        return p;
    }

    /** The transform half of the polar method: sqrt(-2 ln s / s). */
    static double polarScale(double s);

    /**
     * Standard normal via the Marsaglia polar method: each polarPoint()
     * yields two normals, the second kept as a spare for the next call.
     */
    double gaussian();

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace ta

#endif // TA_COMMON_RNG_H
