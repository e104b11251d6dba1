/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the workload generator and simulator runs
 * off this generator so that every experiment is exactly reproducible
 * from a seed. The core is xoshiro256**, which is fast, small, and has
 * no observable statistical defects at the scales used here.
 */

#pragma once

#include <cstdint>

namespace ramp {
namespace util {

/**
 * xoshiro256** PRNG with convenience distributions.
 *
 * A seed of any value (including 0) is valid; seeding runs the state
 * through splitmix64 so correlated seeds do not produce correlated
 * streams.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed, resetting the stream. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool chance(double p);

    /**
     * Geometric distribution on {1, 2, ...}: number of trials up to and
     * including the first success, success probability p in (0, 1].
     */
    std::uint64_t geometric(double p);

    /**
     * geometric(p) for p in (0, 1), given log1p(-p): the same variate
     * from the same draw, for callers that sample one p many times.
     */
    std::uint64_t geometricLog1m(double log1m_p);

    /** Exponential variate with the given mean (> 0). */
    double exponential(double mean);

    /**
     * Fork an independent child stream. The child is seeded from this
     * stream's output, so forked generators are decorrelated but still
     * fully determined by the parent seed.
     */
    Rng fork();

  private:
    std::uint64_t s_[4];
};

} // namespace util
} // namespace ramp

