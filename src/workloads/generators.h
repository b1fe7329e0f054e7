/**
 * @file
 * Synthetic data generators. The paper evaluates on (a) uniform random
 * 0-1 matrices (design space exploration, Fig. 9/13) and (b) "real data"
 * extracted from LLaMA checkpoints. For (b) we substitute
 * Gaussian-distributed weights — with a small heavy-tail outlier mixture
 * mimicking LLM weight statistics — quantized group-wise and bit-sliced,
 * which reproduces the duplicate-count property the paper reports in
 * Sec. 5.9 (slightly fewer unique TransRows than uniform random data).
 */

#ifndef TA_WORKLOADS_GENERATORS_H
#define TA_WORKLOADS_GENERATORS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quant/bitslice.h"
#include "quant/matrix.h"
#include "quant/quantizer.h"

namespace ta {

/** Uniform random binary matrix with one-probability p. */
MatBit randomBinaryMatrix(size_t rows, size_t cols, double p,
                          uint64_t seed);

/** Uniform random integers covering the full `bits` signed range. */
MatI32 randomIntMatrix(size_t rows, size_t cols, int bits, uint64_t seed);

/**
 * Gaussian weights with an outlier mixture: fraction `outlier_frac` of
 * entries drawn at `outlier_scale` times the base sigma.
 */
MatF gaussianWeights(size_t rows, size_t cols, uint64_t seed,
                     double sigma = 1.0, double outlier_frac = 1e-3,
                     double outlier_scale = 8.0);

/**
 * "Real-like" quantized weights: Gaussian source, group-wise symmetric
 * quantization (g = 128) to `bits`.
 */
MatI32 realLikeWeights(size_t rows, size_t cols, int bits, uint64_t seed);

/** Real-like weights already bit-sliced. */
SlicedMatrix realLikeSlicedWeights(size_t rows, size_t cols, int bits,
                                   uint64_t seed);

/**
 * The bytes of packSlicedBits(realLikeSlicedWeights(rows, cols, bits,
 * seed)) — the WeightView layout — filled only in the cells `marked`
 * selects; every other bit is zero. marked[r * numChunks(cols, t_bits)
 * + ch] != 0 selects every bit level of source row r over columns
 * [ch * t_bits, ch * t_bits + t_bits).
 *
 * The draw stream is walked in order up to the last marked row, so the
 * marked cells hold exactly the full synthesis's bits; the polar
 * transform and group absmax run only for the 128-column quantization
 * groups that hold a marked chunk, and quantization and slicing only
 * for marked chunks. This is how the accelerator synthesizes just what
 * its sampled sub-tiles read.
 */
std::vector<uint8_t> realLikePackedCells(size_t rows, size_t cols,
                                         int bits, uint64_t seed,
                                         int t_bits,
                                         const std::vector<uint8_t> &marked);

/** Gaussian int8 activations (for functional attention runs). */
MatI32 randomActivations(size_t rows, size_t cols, int bits,
                         uint64_t seed);

/** Fraction of one-bits in the bit-sliced form of a weight matrix. */
double slicedBitDensity(const SlicedMatrix &s);

} // namespace ta

#endif // TA_WORKLOADS_GENERATORS_H
