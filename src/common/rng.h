/**
 * @file
 * Deterministic random number generation and stateless hashing.
 *
 * The whole simulator is deterministic: all "randomness" (workload layout,
 * branch outcomes, load addresses) derives from explicit seeds via these
 * functions, so a given (profile, seed, config) always reproduces the same
 * cycle-exact execution.
 */

#ifndef UDP_COMMON_RNG_H
#define UDP_COMMON_RNG_H

#include <cstdint>

namespace udp {

/** One round of the splitmix64 finalizer: a high-quality 64-bit mixer. */
constexpr std::uint64_t mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Stateless hash of two 64-bit values. */
constexpr std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/** Stateless hash of three 64-bit values. */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return hashCombine(hashCombine(a, b), c);
}

/** Number of distinct Rng::uniform() values: a draw keeps the top 53 bits
 *  of Rng::next(). */
inline constexpr std::uint64_t kUniformSteps = std::uint64_t{1} << 53;

/**
 * The integer form of a Bernoulli probability: uniform() < p holds exactly
 * when (next() >> 11) < chanceThreshold(p). Both compare one 53-bit draw k
 * with p, and k * 2^-53 < p is k < p * 2^53, which for an integer k is
 * k < ceil(p * 2^53). NaN and p <= 0 never pass (0); p >= 1 always passes
 * (2^53). Comparing integers lets a caller turn a coin into a mask instead
 * of a branch on random data.
 */
constexpr std::uint64_t
chanceThreshold(double p)
{
    if (!(p > 0.0)) {
        return 0;
    }
    if (p >= 1.0) {
        return kUniformSteps;
    }
    // Scaling by a power of two is exact, and x < 2^53 converts exactly.
    const double x = p * 0x1.0p53;
    const auto t = static_cast<std::uint64_t>(x);
    return t + (static_cast<double>(t) < x);
}

/**
 * Small, fast deterministic PRNG (xoshiro-style splitmix stream).
 *
 * Used for workload construction; never used by hardware models at
 * simulation time (those use stateless hashing so wrong-path replay is
 * reproducible).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed ? seed : 0x2545F4914F6CDD1DULL) {}

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        state += kGamma;
        return mix64(state);
    }

    /**
     * next() when @p take, without a branch; otherwise the stream stays
     * where it is and the value returned means nothing. So a draw that only
     * some outcomes need leaves the stream exactly as `if (take) next()`.
     */
    std::uint64_t
    nextIf(bool take)
    {
        state += kGamma & (0 - std::uint64_t{take});
        return mix64(state);
    }

    /** The 53-bit draw that uniform() scales to [0, 1); compare it with
     *  chanceThreshold(p) for chance(p). */
    std::uint64_t next53() { return next() >> 11; }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform() { return static_cast<double>(next53()) * 0x1.0p-53; }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish draw used for skewed size distributions: returns a value
     * in [lo, hi] biased towards lo with the given @p skew (>1 = stronger
     * bias to small values).
     */
    std::uint64_t
    skewed(std::uint64_t lo, std::uint64_t hi, double skew)
    {
        double u = uniform();
        double t = 1.0;
        for (double s = skew; s > 0; s -= 1.0) {
            t *= u;
        }
        return lo + static_cast<std::uint64_t>(t * static_cast<double>(hi - lo));
    }

  private:
    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

    std::uint64_t state;
};

} // namespace udp

#endif // UDP_COMMON_RNG_H
