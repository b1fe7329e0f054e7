/**
 * @file
 * NEON (aarch64 ASIMD) kernel table. Compiled only when CMake detects
 * an aarch64 target (TA_HAVE_NEON); ASIMD is architecturally baseline
 * there, so no per-TU ISA flag and no runtime probe are needed — the
 * table is always available on builds that contain it. Semantics are
 * byte-identical to the scalar oracle (exact integer ops, different
 * lane order), pinned by tests/test_kernels.cc.
 */

#include "kernels/kernel_table.h"

#if defined(TA_HAVE_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <bit>
#include <cstring>

namespace ta {

const KernelTable *neonKernelTable();

namespace {

void
accumRowNeon(int64_t *acc, const int32_t *row, size_t m)
{
    size_t c = 0;
    for (; c + 4 <= m; c += 4) {
        const int32x4_t r = vld1q_s32(row + c);
        int64x2_t a0 = vld1q_s64(acc + c);
        int64x2_t a1 = vld1q_s64(acc + c + 2);
        a0 = vaddw_s32(a0, vget_low_s32(r));
        a1 = vaddw_s32(a1, vget_high_s32(r));
        vst1q_s64(acc + c, a0);
        vst1q_s64(acc + c + 2, a1);
    }
    for (; c < m; ++c)
        acc[c] += row[c];
}

void
scatterRowNeon(int64_t *out, const int64_t *val, int64_t weight,
               size_t m)
{
    const bool neg = weight < 0;
    const uint64_t mag =
        neg ? static_cast<uint64_t>(-weight)
            : static_cast<uint64_t>(weight);
    if (mag == 0 || (mag & (mag - 1)) != 0) {
        for (size_t c = 0; c < m; ++c)
            out[c] += weight * val[c];
        return;
    }
    const int64x2_t cnt = vdupq_n_s64(std::countr_zero(mag));
    size_t c = 0;
    for (; c + 2 <= m; c += 2) {
        const int64x2_t v = vshlq_s64(vld1q_s64(val + c), cnt);
        const int64x2_t o = vld1q_s64(out + c);
        vst1q_s64(out + c, neg ? vsubq_s64(o, v) : vaddq_s64(o, v));
    }
    for (; c < m; ++c)
        out[c] += weight * val[c];
}

/** Pack 16 staged bytes: bit i of the result = (tmp[i] != 0). */
uint32_t
pack16(const uint8_t *tmp)
{
    static const uint8_t kWeights[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                         1, 2, 4, 8, 16, 32, 64, 128};
    const uint8x16_t x = vld1q_u8(tmp);
    const uint8x16_t bits =
        vandq_u8(vtstq_u8(x, x), vld1q_u8(kWeights));
    // Each half sums distinct powers of two, so the sums are ORs.
    const uint32_t lo = vaddv_u8(vget_low_u8(bits));
    const uint32_t hi = vaddv_u8(vget_high_u8(bits));
    return lo | (hi << 8);
}

uint32_t
packBitsNeon(const uint8_t *bits, size_t n)
{
    if (n == 0) // `bits` may be null; memcpy must not see it
        return 0;
    if (n <= 8) {
        // The hot case (T = 8): the multiplier places byte i's bit at
        // position 56 + i; the top byte of the product is the pack.
        uint64_t x = 0;
        std::memcpy(&x, bits, n);
        return static_cast<uint32_t>((x * 0x0102040810204080ull) >>
                                     56);
    }
    alignas(16) uint8_t tmp[32] = {};
    std::memcpy(tmp, bits, n <= 32 ? n : 32);
    uint32_t v = pack16(tmp);
    if (n > 16)
        v |= pack16(tmp + 16) << 16;
    return v;
}

void
sliceLevelNeon(uint8_t *dst, const int32_t *src, size_t n, int bit)
{
    const int32x4_t cnt = vdupq_n_s32(-bit); // negative = right shift
    const uint32x4_t one = vdupq_n_u32(1);
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        const uint32x4_t a = vandq_u32(
            vshlq_u32(vreinterpretq_u32_s32(vld1q_s32(src + c)), cnt),
            one);
        const uint32x4_t b = vandq_u32(
            vshlq_u32(vreinterpretq_u32_s32(vld1q_s32(src + c + 4)),
                      cnt),
            one);
        const uint16x8_t w =
            vcombine_u16(vmovn_u32(a), vmovn_u32(b));
        vst1_u8(dst + c, vmovn_u16(w));
    }
    for (; c < n; ++c)
        dst[c] = static_cast<uint8_t>(
            (static_cast<uint32_t>(src[c]) >> bit) & 1u);
}

uint64_t
countOnesNeon(const uint8_t *bytes, size_t n)
{
    uint64_t sum = 0;
    size_t i = 0;
    for (; i + 16 <= n; i += 16)
        sum += vaddlvq_u8(vld1q_u8(bytes + i));
    for (; i < n; ++i)
        sum += bytes[i];
    return sum;
}

bool
rowScanNeon(const uint32_t *values, size_t n, uint32_t limit,
            unsigned char *counts, size_t countStride,
            uint64_t *zeroRows)
{
    uint64_t zeros = 0;
    bool ok = true;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const uint32x4_t x = vld1q_u32(values + i);
        // vceqz lanes are all-ones; shift down to one bit per lane so
        // the horizontal add counts zero lanes.
        const uint32_t z =
            vaddvq_u32(vshrq_n_u32(vceqzq_u32(x), 31));
        zeros += z;
        if (z == 4)
            continue; // all-zero group: no histogram work
        for (size_t lane = 0; lane < 4; ++lane) {
            const uint32_t v = values[i + lane];
            if (v == 0)
                continue;
            if (v < limit)
                ++*reinterpret_cast<uint32_t *>(
                    counts + static_cast<size_t>(v) * countStride);
            else
                ok = false;
        }
    }
    for (; i < n; ++i) {
        const uint32_t v = values[i];
        if (v == 0)
            ++zeros;
        else if (v < limit)
            ++*reinterpret_cast<uint32_t *>(
                counts + static_cast<size_t>(v) * countStride);
        else
            ok = false;
    }
    *zeroRows += zeros;
    return ok;
}

} // namespace

const KernelTable *
neonKernelTable()
{
    static constexpr KernelTable table{
        "neon",         accumRowNeon, scatterRowNeon, packBitsNeon,
        sliceLevelNeon, countOnesNeon, rowScanNeon,
    };
    return &table;
}

} // namespace ta

#endif // TA_HAVE_NEON && __aarch64__
