#include "common/rng.h"

#include <cmath>

namespace ta {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = (~0ull / span) * span;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + static_cast<int64_t>(v % span);
}

double
Rng::polarScale(double s)
{
    return std::sqrt(-2.0 * std::log(s) / s);
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    const PolarPoint p = polarPoint();
    const double mul = polarScale(p.s);
    spare_ = p.v * mul;
    haveSpare_ = true;
    return p.u * mul;
}

} // namespace ta
