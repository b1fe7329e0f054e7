/**
 * @file
 * AVX2 kernel table. This translation unit is the only one compiled
 * with -mavx2 (CMake sets the flag per-source and defines TA_HAVE_AVX2
 * when the compiler supports it on x86-64); the rest of the build
 * keeps its baseline ISA. The table is handed out only after a
 * runtime CPUID probe, so a binary built here still runs — scalar —
 * on pre-AVX2 silicon.
 *
 * Every kernel is exact integer arithmetic in a different lane order,
 * which is byte-identical to the scalar oracle by construction;
 * tests/test_kernels.cc pins that on randomized geometries.
 */

#include "kernels/kernel_table.h"

#if defined(TA_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstring>

namespace ta {

const KernelTable *avx2KernelTableIfSupported();

namespace {

void
accumRowAvx2(int64_t *acc, const int32_t *row, size_t m)
{
    size_t c = 0;
    // Unrolled x16 so the widening converts and the load/store pairs
    // of independent quads overlap in the pipeline.
    for (; c + 16 <= m; c += 16) {
        for (size_t q = 0; q < 16; q += 4) {
            const __m128i r = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + c + q));
            const __m256i a = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(acc + c + q));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(acc + c + q),
                _mm256_add_epi64(a, _mm256_cvtepi32_epi64(r)));
        }
    }
    for (; c + 4 <= m; c += 4) {
        const __m128i r = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row + c));
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + c));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(acc + c),
            _mm256_add_epi64(a, _mm256_cvtepi32_epi64(r)));
    }
    for (; c < m; ++c)
        acc[c] += row[c];
}

void
scatterRowAvx2(int64_t *out, const int64_t *val, int64_t weight,
               size_t m)
{
    const bool neg = weight < 0;
    const uint64_t mag =
        neg ? static_cast<uint64_t>(-weight)
            : static_cast<uint64_t>(weight);
    if (mag == 0 || (mag & (mag - 1)) != 0) {
        // Non-power-of-two weight: exact multiply, scalar (AVX2 has
        // no 64x64 mullo). Never hit by levelWeight, kept for safety.
        for (size_t c = 0; c < m; ++c)
            out[c] += weight * val[c];
        return;
    }
    const int shift = std::countr_zero(mag);
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    size_t c = 0;
    for (; c + 4 <= m; c += 4) {
        const __m256i v = _mm256_sll_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(val + c)),
            cnt);
        __m256i o = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(out + c));
        o = neg ? _mm256_sub_epi64(o, v) : _mm256_add_epi64(o, v);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + c), o);
    }
    for (; c < m; ++c)
        out[c] += weight * val[c];
}

/**
 * Gather the 8 {0,1} bytes of `x` into bits 0..7. The multiplier
 * places byte i's bit at position 56 + i (all other partial products
 * land below 56 or wrap past 2^64), so the top byte is the pack.
 */
inline uint32_t
pack8(uint64_t x)
{
    return static_cast<uint32_t>((x * 0x0102040810204080ull) >> 56);
}

uint32_t
packBitsAvx2(const uint8_t *bits, size_t n)
{
    if (n == 0) // `bits` may be null; memcpy must not see it
        return 0;
    // The source is a window inside a larger row, so over-reading past
    // n is not safe; stage into a zeroed buffer (zero bytes produce
    // zero pack bits, so no post-masking is needed).
    if (n <= 8) {
        // The hot case (T = 8): one multiply beats any staged SIMD.
        uint64_t x = 0;
        std::memcpy(&x, bits, n);
        return pack8(x);
    }
    if (n <= 16) {
        uint64_t lo = 0, hi = 0;
        std::memcpy(&lo, bits, 8);
        std::memcpy(&hi, bits + 8, n - 8);
        return pack8(lo) | (pack8(hi) << 8);
    }
    alignas(32) uint8_t tmp[32] = {};
    std::memcpy(tmp, bits, n <= 32 ? n : 32);
    const __m256i x =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(tmp));
    return static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpgt_epi8(x, _mm256_setzero_si256())));
}

void
sliceLevelAvx2(uint8_t *dst, const int32_t *src, size_t n, int bit)
{
    const __m128i cnt = _mm_cvtsi32_si128(bit);
    const __m256i one = _mm256_set1_epi32(1);
    // packus works lane-wise; this permutation restores source order
    // after the epi32->epi16->epi8 narrowing chain below.
    const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    size_t c = 0;
    for (; c + 32 <= n; c += 32) {
        __m256i q[4];
        for (int g = 0; g < 4; ++g)
            q[g] = _mm256_and_si256(
                _mm256_srl_epi32(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                        src + c + 8 * g)),
                    cnt),
                one);
        const __m256i w = _mm256_packus_epi16(
            _mm256_packus_epi32(q[0], q[1]),
            _mm256_packus_epi32(q[2], q[3]));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + c),
            _mm256_permutevar8x32_epi32(w, fix));
    }
    for (; c < n; ++c)
        dst[c] = static_cast<uint8_t>(
            (static_cast<uint32_t>(src[c]) >> bit) & 1u);
}

uint64_t
countOnesAvx2(const uint8_t *bytes, size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bytes + i));
        acc = _mm256_add_epi64(acc,
                               _mm256_sad_epu8(x,
                                               _mm256_setzero_si256()));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
        sum += bytes[i];
    return sum;
}

bool
rowScanAvx2(const uint32_t *values, size_t n, uint32_t limit,
            unsigned char *counts, size_t countStride,
            uint64_t *zeroRows)
{
    uint64_t zeros = 0;
    bool ok = true;
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(values + i));
        const uint32_t zmask = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(x, zero))));
        zeros += static_cast<uint64_t>(std::popcount(zmask));
        // Ternary tiles are mostly zero rows: whole all-zero groups
        // skip the histogram entirely — the win over the scalar scan.
        uint32_t nz = ~zmask & 0xffu;
        while (nz != 0) {
            const int lane = std::countr_zero(nz);
            nz &= nz - 1;
            const uint32_t v = values[i + static_cast<size_t>(lane)];
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
avx2KernelTableIfSupported()
{
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    static constexpr KernelTable table{
        "avx2",         accumRowAvx2, scatterRowAvx2, packBitsAvx2,
        sliceLevelAvx2, countOnesAvx2, rowScanAvx2,
    };
    return &table;
}

} // namespace ta

#endif // TA_HAVE_AVX2 && __AVX2__
