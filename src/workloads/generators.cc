#include "workloads/generators.h"

#include <algorithm>
#include <cmath>

namespace ta {

MatBit
randomBinaryMatrix(size_t rows, size_t cols, double p, uint64_t seed)
{
    Rng rng(seed);
    MatBit m(rows, cols);
    for (auto &b : m.data())
        b = rng.bernoulli(p) ? 1 : 0;
    return m;
}

MatI32
randomIntMatrix(size_t rows, size_t cols, int bits, uint64_t seed)
{
    Rng rng(seed);
    const int64_t lo = -(1ll << (bits - 1));
    const int64_t hi = (1ll << (bits - 1)) - 1;
    MatI32 m(rows, cols);
    for (auto &v : m.data())
        v = static_cast<int32_t>(rng.uniformInt(lo, hi));
    return m;
}

MatF
gaussianWeights(size_t rows, size_t cols, uint64_t seed, double sigma,
                double outlier_frac, double outlier_scale)
{
    Rng rng(seed);
    MatF m(rows, cols);
    for (auto &v : m.data()) {
        double s = sigma;
        if (outlier_frac > 0 && rng.bernoulli(outlier_frac))
            s *= outlier_scale;
        v = static_cast<float>(rng.gaussian() * s);
    }
    return m;
}

MatI32
realLikeWeights(size_t rows, size_t cols, int bits, uint64_t seed)
{
    const MatF w = gaussianWeights(rows, cols, seed);
    const GroupQuantizer q(bits, 128);
    return q.quantize(w).values;
}

SlicedMatrix
realLikeSlicedWeights(size_t rows, size_t cols, int bits, uint64_t seed)
{
    return bitSlice(realLikeWeights(rows, cols, bits, seed), bits);
}

std::vector<uint8_t>
realLikePackedCells(size_t rows, size_t cols, int bits, uint64_t seed,
                    int t_bits, const std::vector<uint8_t> &marked)
{
    // bitSlice's width check comes first, so a bad width fails alike
    // for every shape and every set of marks.
    TA_ASSERT(bits >= 2 && bits <= 16, "unsupported slice width ", bits);
    TA_ASSERT(t_bits >= 1, "bad chunk width ", t_bits);
    const size_t chunks = numChunks(cols, t_bits);
    TA_ASSERT(marked.size() == rows * chunks, "marks cover ",
              marked.size(), " cells of a ", rows, "x", chunks, " grid");

    const size_t stride = ceilDiv(cols, 8);
    std::vector<uint8_t> out(rows * bits * stride, 0);
    // Rows past the last marked one need no draws at all.
    size_t end = rows;
    while (end > 0 &&
           std::none_of(marked.begin() + (end - 1) * chunks,
                        marked.begin() + end * chunks,
                        [](uint8_t m) { return m != 0; }))
        --end;

    // realLikeWeights' source and quantizer: gaussianWeights' default
    // outlier mixture and GroupQuantizer(bits, 128).
    constexpr double kOutlierFrac = 1e-3, kOutlierScale = 8.0;
    constexpr size_t kGroup = 128;
    const size_t groups = ceilDiv(cols, kGroup);
    const int32_t hi = (1 << (bits - 1)) - 1, lo = -hi - 1;

    Rng rng(seed);
    // Rng::gaussian()'s pair in flight: element 2i takes u, 2i+1 takes
    // v (pairs run across row ends); the transform is computed on first
    // need only.
    Rng::PolarPoint pair{};
    bool spare = false, have_mul = false;
    double mul = 0.0;
    std::vector<float> vals(cols), scales(groups);
    std::vector<uint8_t> need(groups);
    for (size_t r = 0; r < end; ++r) {
        const uint8_t *row_marks = marked.data() + r * chunks;
        std::fill(need.begin(), need.end(), 0);
        for (size_t ch = 0; ch < chunks; ++ch) {
            if (row_marks[ch] == 0)
                continue;
            const size_t c0 = ch * t_bits;
            const size_t c1 = std::min(cols, c0 + t_bits);
            for (size_t g = c0 / kGroup; g <= (c1 - 1) / kGroup; ++g)
                need[g] = 1;
        }
        // gaussianWeights' element order: the outlier draw, then the
        // normal; values and absmax only in groups that are read.
        for (size_t g = 0; g < groups; ++g) {
            const size_t c1 = std::min(cols, (g + 1) * kGroup);
            float amax = 0.0f;
            for (size_t c = g * kGroup; c < c1; ++c) {
                const bool outlier = rng.bernoulli(kOutlierFrac);
                if (!spare) {
                    pair = rng.polarPoint();
                    have_mul = false;
                }
                const double x = spare ? pair.v : pair.u;
                spare = !spare;
                if (need[g] == 0)
                    continue;
                if (!have_mul) {
                    mul = Rng::polarScale(pair.s);
                    have_mul = true;
                }
                double sigma = 1.0;
                if (outlier)
                    sigma *= kOutlierScale;
                vals[c] = static_cast<float>(x * mul * sigma);
                amax = std::max(amax, std::fabs(vals[c]));
            }
            scales[g] = amax / hi;
        }
        // Quantize and slice the marked chunks, one output byte's
        // columns at a time: bit b of each code lands in level row b.
        uint8_t *plane_row = out.data() + r * bits * stride;
        for (size_t ch = 0; ch < chunks; ++ch) {
            if (row_marks[ch] == 0)
                continue;
            const size_t c1 = std::min(cols, ch * t_bits + t_bits);
            for (size_t c = ch * t_bits; c < c1;) {
                const size_t n = std::min(c1, (c | 7) + 1) - c;
                int32_t codes[8];
                for (size_t j = 0; j < n; ++j) {
                    const float scale = scales[(c + j) / kGroup];
                    codes[j] = scale <= 0.0f
                                   ? 0
                                   : static_cast<int32_t>(std::clamp<int64_t>(
                                         std::llroundf(vals[c + j] / scale),
                                         lo, hi));
                }
                uint8_t *dst = plane_row + (c >> 3);
                for (int b = 0; b < bits; ++b, dst += stride) {
                    unsigned byte = 0;
                    for (size_t j = 0; j < n; ++j)
                        byte |= static_cast<unsigned>((codes[j] >> b) & 1)
                                << j;
                    *dst |= static_cast<uint8_t>(byte << (c & 7));
                }
                c += n;
            }
        }
    }
    return out;
}

MatI32
randomActivations(size_t rows, size_t cols, int bits, uint64_t seed)
{
    Rng rng(seed);
    const double sigma = (1 << (bits - 1)) / 4.0;
    const int64_t lo = -(1ll << (bits - 1));
    const int64_t hi = (1ll << (bits - 1)) - 1;
    MatI32 m(rows, cols);
    for (auto &v : m.data()) {
        const int64_t x = std::llround(rng.gaussian() * sigma);
        v = static_cast<int32_t>(std::clamp(x, lo, hi));
    }
    return m;
}

double
slicedBitDensity(const SlicedMatrix &s)
{
    if (s.bits.size() == 0)
        return 0.0;
    return static_cast<double>(countOnes(s.bits)) / s.bits.size();
}

} // namespace ta
