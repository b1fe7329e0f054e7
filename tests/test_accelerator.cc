/** @file Unit tests for the full TransArray accelerator model. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/accelerator.h"
#include "service/protocol.h"
#include "workloads/generators.h"

namespace ta {
namespace {

TransArrayAccelerator::Config
acfg()
{
    TransArrayAccelerator::Config c;
    c.sampleLimit = 64;
    return c;
}

TEST(Accelerator, RunsSmallLayer)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(64, 128, 8, 1);
    const LayerRun run = acc.runLayer(w, 256);
    EXPECT_GT(run.cycles, 0u);
    EXPECT_GT(run.computeCycles, 0u);
    EXPECT_GT(run.energy.total(), 0.0);
    EXPECT_EQ(run.subTiles, 2u * 16); // 512 rows/256 x 128/8 chunks
}

TEST(Accelerator, DramTrafficAccounting)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(64, 128, 8, 2);
    const LayerRun run = acc.runLayer(w, 256);
    const uint64_t expected = 64 * 128       // 8-bit weights
                              + 128 * 256    // 8-bit activations
                              + 64 * 256 * 4; // 32-bit outputs
    EXPECT_EQ(run.dramBytes, expected);
}

TEST(Accelerator, FourBitWeightsRoughlyTwiceAsFast)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w8 = realLikeSlicedWeights(128, 256, 8, 3);
    const SlicedMatrix w4 = realLikeSlicedWeights(128, 256, 4, 3);
    const LayerRun r8 = acc.runLayer(w8, 2048);
    const LayerRun r4 = acc.runLayer(w4, 2048);
    const double speedup = static_cast<double>(r8.computeCycles) /
                           static_cast<double>(r4.computeCycles);
    EXPECT_NEAR(speedup, 2.0, 0.4);
}

TEST(Accelerator, MoreUnitsFewerCycles)
{
    auto c1 = acfg();
    c1.units = 1;
    auto c6 = acfg();
    c6.units = 6;
    const SlicedMatrix w = realLikeSlicedWeights(128, 128, 8, 4);
    const uint64_t one =
        TransArrayAccelerator(c1).runLayer(w, 2048).computeCycles;
    const uint64_t six =
        TransArrayAccelerator(c6).runLayer(w, 2048).computeCycles;
    EXPECT_NEAR(static_cast<double>(one) / six, 6.0, 0.5);
}

TEST(Accelerator, SamplingMatchesExhaustive)
{
    auto exact = acfg();
    exact.sampleLimit = 0; // simulate everything
    auto sampled = acfg();
    sampled.sampleLimit = 16;
    const SlicedMatrix w = realLikeSlicedWeights(128, 256, 8, 5);
    const LayerRun re = TransArrayAccelerator(exact).runLayer(w, 512);
    const LayerRun rs = TransArrayAccelerator(sampled).runLayer(w, 512);
    const double rel =
        std::abs(static_cast<double>(re.computeCycles) -
                 static_cast<double>(rs.computeCycles)) /
        re.computeCycles;
    EXPECT_LT(rel, 0.08);
}

TEST(Accelerator, EnergyBreakdownShape)
{
    // Fig. 11: buffers dominate, and the prefix buffer is the largest
    // on-chip consumer.
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(256, 512, 8, 6);
    const LayerRun run = acc.runLayer(w, 2048);
    const EnergyBreakdown &e = run.energy;
    EXPECT_GT(e.buffers(), e.core);
    EXPECT_GT(e.prefixBuf, e.weightBuf);
    EXPECT_GT(e.prefixBuf, e.inputBuf);
    EXPECT_GT(e.total(), 0.0);
}

TEST(Accelerator, StaticScoreboardVariantRuns)
{
    auto c = acfg();
    c.useStaticScoreboard = true;
    TransArrayAccelerator acc(c);
    const SlicedMatrix w = realLikeSlicedWeights(64, 128, 8, 7);
    const LayerRun run = acc.runLayer(w, 128);
    EXPECT_GT(run.cycles, 0u);
    // Static SI at 256-row tiles keeps misses rare but nonzero.
    EXPECT_GE(run.sparsity.siMisses, 0u);
}

TEST(Accelerator, DensityCloseToAnalyzer)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(256, 256, 8, 8);
    const LayerRun run = acc.runLayer(w, 64);
    EXPECT_NEAR(run.sparsity.totalDensity(), 0.1257, 0.01);
}

TEST(Accelerator, RunGemmConvenience)
{
    TransArrayAccelerator acc(acfg());
    const MatI32 w = realLikeWeights(32, 64, 8, 9);
    const LayerRun run = acc.runGemm(w, 8, 128);
    EXPECT_GT(run.cycles, 0u);
}

// Sampled synthesis is byte-identical to the catalog path: runShape and
// a mixed runLayersBatched window serialize exactly as runShapeView over
// packSlicedBits(realLikeSlicedWeights(...)), the fully synthesized
// tensor, across widths, T, sample limits and both scoreboards.
TEST(Accelerator, SampledSynthesisMatchesPackedFullSynthesis)
{
    // n * wbits is never a multiple of the 256-row tile.
    const GemmShape shapes[] = {{100, 64, 32}, {21, 1000, 64},
                                {9, 4096, 16}};
    const int widths[] = {2, 3, 4, 6, 8, 16};
    struct Layer
    {
        GemmShape shape;
        int wbits;
        uint64_t seed;
        std::vector<uint8_t> packed;
        WeightView view;
    };
    std::vector<Layer> layers;
    for (const GemmShape &shape : shapes)
        for (int wbits : widths) {
            Layer l{shape, wbits, 500 + layers.size(), {}, {}};
            const SlicedMatrix full =
                realLikeSlicedWeights(shape.n, shape.k, wbits, l.seed);
            l.packed = packSlicedBits(full);
            l.view = {l.packed.data(), ceilDiv(shape.k, 8),
                      full.bits.rows(), shape.k, wbits, shape.n};
            layers.push_back(std::move(l));
        }

    for (int t : {2, 4, 8, 16}) {
        // One plan cache per T, as a server shares one per scoreboard
        // config: plans are pure, so sharing changes no result, and it
        // spares rebuilding the T=16 plans for every engine.
        PlanCache plans(1 << 14);
        for (size_t samples : {0, 1, 16, 64, 96, 512})
            for (bool use_static : {false, true}) {
                ServiceRequest req;
                req.tbits = t;
                req.samples = samples;
                req.useStatic = use_static;
                const TransArrayAccelerator acc(
                    engineConfig(engineKeyOf(req), 2, &plans));
                std::vector<BatchLayerRequest> window;
                std::vector<std::string> want;
                for (const Layer &l : layers) {
                    req.shape = l.shape;
                    req.wbits = l.wbits;
                    req.seed = l.seed;
                    want.push_back(serializeResponse(
                        req, acc.runShapeView(l.shape, l.wbits, l.view)));
                    ASSERT_EQ(serializeResponse(
                                  req, acc.runShape(l.shape, l.wbits,
                                                    l.seed)),
                              want.back())
                        << "T=" << t << " samples=" << samples
                        << " static=" << use_static;
                    window.push_back({l.shape, l.wbits, l.seed});
                }
                const std::vector<LayerRun> runs =
                    acc.runLayersBatched(window);
                for (size_t i = 0; i < layers.size(); ++i) {
                    req.shape = layers[i].shape;
                    req.wbits = layers[i].wbits;
                    req.seed = layers[i].seed;
                    ASSERT_EQ(serializeResponse(req, runs[i]), want[i])
                        << "batched layer " << i << " T=" << t
                        << " samples=" << samples
                        << " static=" << use_static;
                }
            }
    }
}

TEST(Accelerator, RejectsUnsliceableWidthsForAnyShape)
{
    // The bit-slicer's 2..16 check holds even when a degenerate shape
    // leaves nothing to synthesize.
    const TransArrayAccelerator acc(acfg());
    for (int wbits : {1, 17})
        for (const GemmShape &shape :
             {GemmShape{64, 128, 32}, GemmShape{64, 128, 0},
              GemmShape{0, 128, 32}, GemmShape{64, 0, 32}}) {
            EXPECT_THROW(acc.runShape(shape, wbits, 1), std::logic_error);
            EXPECT_THROW(acc.runLayersBatched({{shape, wbits, 1}}),
                         std::logic_error);
        }
}

TEST(LayerRun, Accumulation)
{
    LayerRun a, b;
    a.cycles = 10;
    a.energy.core = 1;
    b.cycles = 5;
    b.energy.core = 2;
    b.sparsity.tBits = 8;
    a += b;
    EXPECT_EQ(a.cycles, 15u);
    EXPECT_DOUBLE_EQ(a.energy.core, 3.0);
}

} // namespace
} // namespace ta
