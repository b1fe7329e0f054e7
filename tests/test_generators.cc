/** @file Unit tests for the synthetic data generators (Sec. 5.9 proxy). */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "scoreboard/analyzer.h"
#include "workloads/generators.h"

namespace ta {
namespace {

TEST(Generators, RandomBinaryDensity)
{
    const MatBit m = randomBinaryMatrix(256, 256, 0.5, 1);
    const double d = static_cast<double>(countOnes(m)) / m.size();
    EXPECT_NEAR(d, 0.5, 0.02);

    const MatBit sparse = randomBinaryMatrix(256, 256, 0.1, 2);
    EXPECT_NEAR(static_cast<double>(countOnes(sparse)) / sparse.size(),
                0.1, 0.02);
}

TEST(Generators, RandomBinaryDeterministic)
{
    EXPECT_TRUE(randomBinaryMatrix(32, 32, 0.5, 7) ==
                randomBinaryMatrix(32, 32, 0.5, 7));
}

TEST(Generators, RandomIntRange)
{
    const MatI32 m = randomIntMatrix(64, 64, 4, 3);
    for (int32_t v : m.data()) {
        EXPECT_GE(v, -8);
        EXPECT_LE(v, 7);
    }
}

TEST(Generators, GaussianWeightsMoments)
{
    const MatF w = gaussianWeights(128, 128, 5, 1.0, 0.0);
    double sum = 0, sq = 0;
    for (float v : w.data()) {
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / w.size(), 0.0, 0.05);
    EXPECT_NEAR(sq / w.size(), 1.0, 0.1);
}

TEST(Generators, OutlierMixtureWidensTails)
{
    const MatF base = gaussianWeights(256, 256, 5, 1.0, 0.0);
    const MatF heavy = gaussianWeights(256, 256, 5, 1.0, 0.01, 10.0);
    auto maxabs = [](const MatF &m) {
        float mx = 0;
        for (float v : m.data())
            mx = std::max(mx, std::abs(v));
        return mx;
    };
    EXPECT_GT(maxabs(heavy), maxabs(base) * 1.5f);
}

TEST(Generators, RealLikeWeightsInRange)
{
    const MatI32 w = realLikeWeights(64, 256, 4, 11);
    for (int32_t v : w.data()) {
        EXPECT_GE(v, -8);
        EXPECT_LE(v, 7);
    }
}

TEST(Generators, RealLikeSlicedShape)
{
    const SlicedMatrix s = realLikeSlicedWeights(16, 64, 8, 1);
    EXPECT_EQ(s.bits.rows(), 128u);
    EXPECT_EQ(s.bits.cols(), 64u);
}

TEST(Generators, ActivationsClampedToBits)
{
    const MatI32 a = randomActivations(64, 64, 8, 9);
    for (int32_t v : a.data()) {
        EXPECT_GE(v, -128);
        EXPECT_LE(v, 127);
    }
}

TEST(Generators, UniqueTransRowCountMatchesSec59)
{
    // Sec. 5.9: 256 uniform random 8-bit TransRows contain ~162 unique
    // values in expectation; real(-like) data slightly fewer.
    const MatBit rand = randomBinaryMatrix(4096, 8, 0.5, 13);
    const auto rand_tiles = tileValues(rand, 8, 256);
    double rand_unique = 0;
    for (const auto &t : rand_tiles)
        rand_unique += std::set<uint32_t>(t.begin(), t.end()).size();
    rand_unique /= rand_tiles.size();
    EXPECT_NEAR(rand_unique, 162.0, 6.0);

    const SlicedMatrix real = realLikeSlicedWeights(512, 64, 8, 17);
    const auto real_tiles = tileValues(real.bits, 8, 256);
    double real_unique = 0;
    for (const auto &t : real_tiles)
        real_unique += std::set<uint32_t>(t.begin(), t.end()).size();
    real_unique /= real_tiles.size();
    EXPECT_LT(real_unique, rand_unique + 2.0);
}

TEST(Generators, SlicedBitDensityNearHalf)
{
    const SlicedMatrix s = realLikeSlicedWeights(128, 128, 8, 19);
    EXPECT_NEAR(slicedBitDensity(s), 0.5, 0.08);
}

// Odd column counts make Gaussian pairs straddle row ends; 1000 leaves a
// short last quantization group; 300 spans three groups.
struct PackedCase
{
    size_t rows, cols;
    int bits, t;
};
const PackedCase kPackedCases[] = {
    {5, 27, 3, 4},   {7, 1000, 8, 8}, {3, 300, 16, 16},
    {4, 129, 2, 2},  {6, 64, 6, 8},   {2, 1001, 4, 16},
};

TEST(RealLikePackedCells, AllMarkedIsThePackedFullSynthesis)
{
    for (const PackedCase &pc : kPackedCases) {
        const std::vector<uint8_t> marked(
            pc.rows * numChunks(pc.cols, pc.t), 1);
        EXPECT_EQ(realLikePackedCells(pc.rows, pc.cols, pc.bits, 42, pc.t,
                                      marked),
                  packSlicedBits(
                      realLikeSlicedWeights(pc.rows, pc.cols, pc.bits, 42)))
            << pc.rows << "x" << pc.cols << " int" << pc.bits << " T="
            << pc.t;
    }
}

TEST(RealLikePackedCells, MarkedCellsMatchAndTheRestIsZero)
{
    Rng pick(7);
    for (const PackedCase &pc : kPackedCases) {
        const size_t chunks = numChunks(pc.cols, pc.t);
        std::vector<uint8_t> marked(pc.rows * chunks, 0);
        for (auto &m : marked)
            m = pick.bernoulli(0.2) ? 1 : 0;
        marked[(pc.rows - 1) * chunks + chunks - 1] = 1; // the edge chunk
        const std::vector<uint8_t> got =
            realLikePackedCells(pc.rows, pc.cols, pc.bits, 9, pc.t, marked);
        const SlicedMatrix full =
            realLikeSlicedWeights(pc.rows, pc.cols, pc.bits, 9);
        const size_t stride = ceilDiv(pc.cols, 8);
        ASSERT_EQ(got.size(), full.bits.rows() * stride);
        for (size_t r = 0; r < full.bits.rows(); ++r)
            for (size_t c = 0; c < pc.cols; ++c) {
                const bool in = marked[r / pc.bits * chunks + c / pc.t] != 0;
                const int bit = (got[r * stride + (c >> 3)] >> (c & 7)) & 1;
                ASSERT_EQ(bit, in ? full.bits.at(r, c) : 0)
                    << "sliced row " << r << " col " << c;
            }
    }
}

TEST(RealLikePackedCells, RejectsBadWidthsBeforeAnyShortcut)
{
    // bitSlice's 2..16 check holds even when nothing would be drawn.
    for (int bits : {1, 17})
        for (size_t rows : {0, 4}) {
            const std::vector<uint8_t> none(rows * numChunks(64, 8), 0);
            EXPECT_THROW(realLikePackedCells(rows, 64, bits, 1, 8, none),
                         std::logic_error);
        }
}

} // namespace
} // namespace ta
