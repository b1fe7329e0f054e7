/** @file Unit + property tests for bit-slicing (Fig. 2 / Sec. 2.1). */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "quant/bitslice.h"
#include "workloads/generators.h"

namespace ta {
namespace {

TEST(BitSlice, ShapeIsSxNByK)
{
    MatI32 m(4, 4, 0);
    const SlicedMatrix s = bitSlice(m, 4);
    EXPECT_EQ(s.bits.rows(), 16u);
    EXPECT_EQ(s.bits.cols(), 4u);
    EXPECT_EQ(s.wordBits, 4);
    EXPECT_EQ(s.origRows, 4u);
}

TEST(BitSlice, RowMetadata)
{
    MatI32 m(3, 2, 0);
    const SlicedMatrix s = bitSlice(m, 4);
    EXPECT_EQ(s.origRow(0), 0u);
    EXPECT_EQ(s.origRow(7), 1u);
    EXPECT_EQ(s.bitLevel(0), 0);
    EXPECT_EQ(s.bitLevel(7), 3);
    EXPECT_EQ(s.levelWeight(0), 1);
    EXPECT_EQ(s.levelWeight(1), 2);
    EXPECT_EQ(s.levelWeight(3), -8); // sign bit of a 4-bit word
}

TEST(BitSlice, TwosComplementBits)
{
    MatI32 m(1, 1, -3); // -3 in 4-bit: 1101
    const SlicedMatrix s = bitSlice(m, 4);
    EXPECT_EQ(s.bits.at(0, 0), 1);
    EXPECT_EQ(s.bits.at(1, 0), 0);
    EXPECT_EQ(s.bits.at(2, 0), 1);
    EXPECT_EQ(s.bits.at(3, 0), 1);
}

TEST(BitSlice, OutOfRangeValueIsFatal)
{
    MatI32 m(1, 1, 8); // 4-bit range is [-8, 7]
    EXPECT_THROW(bitSlice(m, 4), std::runtime_error);
    MatI32 ok(1, 1, -8);
    EXPECT_NO_THROW(bitSlice(ok, 4));
}

TEST(BitSlice, UnsliceRoundTripExhaustive4Bit)
{
    // Every 4-bit value survives the round trip.
    MatI32 m(16, 1);
    for (int v = -8; v <= 7; ++v)
        m.at(v + 8, 0) = v;
    EXPECT_TRUE(bitUnslice(bitSlice(m, 4)) == m);
}

class BitSliceRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(BitSliceRoundTrip, RandomMatricesSurvive)
{
    const int bits = GetParam();
    Rng rng(bits * 977);
    const MatI32 m = randomIntMatrix(13, 17, bits, rng.next());
    EXPECT_TRUE(bitUnslice(bitSlice(m, bits)) == m);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitSliceRoundTrip,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 16));

TEST(ExtractTransRows, PacksChunkBitsLsbFirst)
{
    MatI32 m(1, 8, 0);
    // One 2-bit word per column: value 1 puts a one-bit at level 0.
    for (int c = 0; c < 8; ++c)
        m.at(0, c) = (c % 2) ? 1 : 0;
    const SlicedMatrix s = bitSlice(m, 2);
    const auto rows = extractTransRows(s, 8, 0, 0, s.bits.rows());
    ASSERT_EQ(rows.size(), 2u);
    // Level-0 sliced row: bits at odd columns -> 0b10101010.
    EXPECT_EQ(rows[0].value, 0b10101010u);
    EXPECT_EQ(rows[1].value, 0u);
    EXPECT_EQ(rows[0].slicedRow, 0u);
}

TEST(ExtractTransRows, EdgeChunkZeroPadded)
{
    MatI32 m(1, 10, 1); // K = 10 with T = 8: second chunk has 2 columns
    const SlicedMatrix s = bitSlice(m, 2);
    const auto rows = extractTransRows(s, 8, 1, 0, 1);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 0b11u); // only two valid bits
}

TEST(ExtractTransRows, RowRange)
{
    MatI32 m(4, 4, 1); // 2-bit range is [-2, 1]
    const SlicedMatrix s = bitSlice(m, 2);
    const auto rows = extractTransRows(s, 4, 0, 2, 6);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].slicedRow, 2u);
    EXPECT_EQ(rows[3].slicedRow, 5u);
}

TEST(ExtractTransRows, ViewMatchesSlicedMatrix)
{
    // 203 columns: a multiple of neither 8 nor any T, so edge chunks are
    // partial and most chunks start mid-byte. The plane is sized exactly,
    // so a read past a row's last byte would leave the buffer on the
    // final row.
    const SlicedMatrix s = realLikeSlicedWeights(40, 203, 6, 5);
    const std::vector<uint8_t> packed = packSlicedBits(s);
    WeightView v;
    v.data = packed.data();
    v.rowStride = ceilDiv(s.bits.cols(), 8);
    v.rows = s.bits.rows();
    v.cols = s.bits.cols();
    v.wordBits = s.wordBits;
    v.origRows = s.origRows;
    ASSERT_EQ(packed.size(), v.rows * v.rowStride);
    std::vector<TransRow> want, got;
    for (int t : {2, 4, 8, 16})
        for (size_t ch = 0; ch < numChunks(v.cols, t); ++ch) {
            extractTransRows(s, t, ch, 13, v.rows, want);
            extractTransRows(v, t, ch, 13, v.rows, got);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(got[i].value, want[i].value)
                    << "T=" << t << " chunk " << ch << " row " << i;
                ASSERT_EQ(got[i].slicedRow, want[i].slicedRow);
            }
        }
}

TEST(CountOnes, MatchesManual)
{
    MatBit b(2, 3, 0);
    b.at(0, 0) = 1;
    b.at(1, 2) = 1;
    EXPECT_EQ(countOnes(b), 2u);
}

TEST(NumChunks, Rounding)
{
    EXPECT_EQ(numChunks(8, 8), 1u);
    EXPECT_EQ(numChunks(9, 8), 2u);
    EXPECT_EQ(numChunks(16, 4), 4u);
}

} // namespace
} // namespace ta
