#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace ramp {
namespace util {

namespace {

/** splitmix64: used only to expand the seed into the xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t x = seed_value;
    for (auto &word : s_)
        word = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::below called with n == 0");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % n;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::geometric(double p)
{
    if (p <= 0.0 || p > 1.0)
        panic(cat("Rng::geometric needs p in (0,1], got ", p));
    if (p == 1.0)
        return 1;
    return geometricLog1m(std::log1p(-p));
}

std::uint64_t
Rng::geometricLog1m(double log1m_p)
{
    // Inversion: ceil(ln(U) / ln(1-p)).
    const double u = 1.0 - uniform(); // in (0, 1]
    const double v = std::ceil(std::log(u) / log1m_p);
    return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        panic(cat("Rng::exponential needs mean > 0, got ", mean));
    const double u = 1.0 - uniform(); // in (0, 1]
    return -mean * std::log(u);
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace util
} // namespace ramp
