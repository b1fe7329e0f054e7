#include "quant/bitslice.h"

#include "kernels/kernel_table.h"

namespace ta {

int64_t
SlicedMatrix::levelWeight(size_t r) const
{
    const int level = bitLevel(r);
    const int64_t mag = 1ll << level;
    return level == wordBits - 1 ? -mag : mag;
}

SlicedMatrix
bitSlice(const MatI32 &m, int word_bits)
{
    TA_ASSERT(word_bits >= 2 && word_bits <= 16,
              "unsupported slice width ", word_bits);
    const int64_t lo = -(1ll << (word_bits - 1));
    const int64_t hi = (1ll << (word_bits - 1)) - 1;

    SlicedMatrix s;
    s.wordBits = word_bits;
    s.origRows = m.rows();
    s.bits = MatBit(m.rows() * word_bits, m.cols(), 0);
    const KernelTable &kt = kernels();
    for (size_t r = 0; r < m.rows(); ++r) {
        const int32_t *row = m.rowPtr(r);
        for (size_t c = 0; c < m.cols(); ++c) {
            const int32_t v = row[c];
            if (v < lo || v > hi) {
                TA_FATAL("value ", v, " at (", r, ",", c,
                         ") exceeds ", word_bits, "-bit range");
            }
        }
        // 2's complement bit pattern of each value, one level row per
        // bit. Extracting bit b of the raw int32 equals extracting it
        // from the word_bits-masked pattern for b < word_bits, so the
        // kernel needs no separate mask step.
        for (int b = 0; b < word_bits; ++b)
            kt.sliceLevel(s.bits.rowPtr(r * word_bits + b), row,
                          m.cols(), b);
    }
    return s;
}

MatI32
bitUnslice(const SlicedMatrix &s)
{
    MatI32 m(s.origRows, s.bits.cols(), 0);
    for (size_t r = 0; r < s.bits.rows(); ++r) {
        const int64_t w = s.levelWeight(r);
        const size_t orow = s.origRow(r);
        for (size_t c = 0; c < s.bits.cols(); ++c)
            m.at(orow, c) += static_cast<int32_t>(w * s.bits.at(r, c));
    }
    return m;
}

std::vector<TransRow>
extractTransRows(const SlicedMatrix &s, int t_bits, size_t chunk,
                 size_t row_begin, size_t row_end)
{
    std::vector<TransRow> rows;
    extractTransRows(s, t_bits, chunk, row_begin, row_end, rows);
    return rows;
}

void
extractTransRows(const SlicedMatrix &s, int t_bits, size_t chunk,
                 size_t row_begin, size_t row_end,
                 std::vector<TransRow> &out)
{
    TA_ASSERT(row_end <= s.bits.rows(), "row range out of bounds");
    const size_t c0 = chunk * t_bits;
    TA_ASSERT(c0 < s.bits.cols(), "chunk out of bounds");
    const size_t c1 = std::min(s.bits.cols(), c0 + t_bits);

    out.clear();
    out.reserve(row_end - row_begin);
    const KernelTable &kt = kernels();
    for (size_t r = row_begin; r < row_end; ++r) {
        const uint32_t v = kt.packBits(s.bits.rowPtr(r) + c0, c1 - c0);
        out.push_back({v, static_cast<uint32_t>(r)});
    }
}

namespace {

/** The view TransRows of one chunk, each row's columns loaded as one
 *  little-endian window of kBytes bytes. */
template <size_t kBytes>
void
extractWindows(const WeightView &v, size_t b0, unsigned shift,
               uint32_t mask, size_t row_begin, size_t row_end,
               std::vector<TransRow> &out)
{
    const uint8_t *p = v.data + row_begin * v.rowStride + b0;
    for (size_t r = row_begin; r < row_end; ++r, p += v.rowStride) {
        uint32_t w = 0;
        for (size_t i = 0; i < kBytes; ++i)
            w |= static_cast<uint32_t>(p[i]) << (8 * i);
        out.push_back({(w >> shift) & mask, static_cast<uint32_t>(r)});
    }
}

} // namespace

void
extractTransRows(const WeightView &v, int t_bits, size_t chunk,
                 size_t row_begin, size_t row_end,
                 std::vector<TransRow> &out)
{
    TA_ASSERT(row_end <= v.rows, "row range out of bounds");
    TA_ASSERT(t_bits >= 1 && t_bits <= 16, "bad TransRow width ", t_bits);
    const size_t c0 = chunk * t_bits;
    TA_ASSERT(c0 < v.cols, "chunk out of bounds");
    const size_t c1 = std::min(v.cols, c0 + t_bits);

    out.clear();
    out.reserve(row_end - row_begin);
    // Bit j of the TransRow is binary-matrix column c0 + j — the same
    // rule packBits applies to the byte-per-bit rows. Columns [c0, c1)
    // span at most 3 bytes (7 + 16 bits); no byte past (c1 - 1) >> 3 is
    // read, since a row's stride may end there.
    const size_t b0 = c0 >> 3;
    const size_t bytes = ((c1 - 1) >> 3) - b0 + 1;
    const unsigned shift = static_cast<unsigned>(c0 & 7);
    const uint32_t mask = (1u << (c1 - c0)) - 1;
    if (bytes == 1)
        extractWindows<1>(v, b0, shift, mask, row_begin, row_end, out);
    else if (bytes == 2)
        extractWindows<2>(v, b0, shift, mask, row_begin, row_end, out);
    else
        extractWindows<3>(v, b0, shift, mask, row_begin, row_end, out);
}

std::vector<uint8_t>
packSlicedBits(const SlicedMatrix &s)
{
    const size_t stride = ceilDiv(s.bits.cols(), 8);
    std::vector<uint8_t> out(s.bits.rows() * stride, 0);
    for (size_t r = 0; r < s.bits.rows(); ++r) {
        const uint8_t *row = s.bits.rowPtr(r);
        uint8_t *dst = out.data() + r * stride;
        for (size_t c = 0; c < s.bits.cols(); ++c)
            dst[c >> 3] |= static_cast<uint8_t>((row[c] & 1)
                                                << (c & 7));
    }
    return out;
}

uint64_t
countOnes(const MatBit &bits)
{
    return kernels().countOnes(bits.data().data(), bits.data().size());
}

} // namespace ta
