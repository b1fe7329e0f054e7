#include "core/accelerator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "exec/batch_scheduler.h"
#include "exec/scratch_arena.h"
#include "noc/benes.h"
#include "workloads/generators.h"

namespace ta {

namespace {

/** Representative-tensor dimensions: the full shape capped at
 *  (repr_rows x repr_cols) — the one rule runShape and the batched
 *  path must agree on, or rescaleToShape would rescale a tensor of a
 *  different size than was synthesized. */
std::pair<size_t, size_t>
reprDims(const GemmShape &shape, size_t repr_rows, size_t repr_cols)
{
    return {std::min<size_t>(shape.n, repr_rows),
            std::min<size_t>(shape.k, repr_cols)};
}

} // namespace

LayerRun &
LayerRun::operator+=(const LayerRun &o)
{
    computeCycles += o.computeCycles;
    dramCycles += o.dramCycles;
    cycles += o.cycles;
    dramBytes += o.dramBytes;
    energy += o.energy;
    sparsity.merge(o.sparsity);
    subTiles += o.subTiles;
    exec.merge(o.exec);
    return *this;
}

/**
 * One face over the two weight representations the layer machinery
 * consumes: a caller's SlicedMatrix (byte-per-bit, runLayer) or a
 * bit-packed WeightView — a storage-tier plane (zero copy out of a
 * pinned segment mapping) or the sampled cells runShape synthesizes.
 * Both expose identical geometry and produce identical TransRows,
 * which is the whole byte-identity story of catalog serving and of
 * sampled synthesis.
 */
struct TransArrayAccelerator::WeightRef
{
    const SlicedMatrix *mat = nullptr;
    WeightView view; ///< used when mat == nullptr

    WeightRef() = default;
    explicit WeightRef(const SlicedMatrix &m) : mat(&m) {}
    explicit WeightRef(const WeightView &v) : view(v) {}

    size_t rows() const { return mat ? mat->bits.rows() : view.rows; }
    size_t cols() const { return mat ? mat->bits.cols() : view.cols; }
    int wordBits() const
    {
        return mat ? mat->wordBits : view.wordBits;
    }
    size_t origRows() const
    {
        return mat ? mat->origRows : view.origRows;
    }

    void
    extract(int t_bits, size_t chunk, size_t r0, size_t r1,
            std::vector<TransRow> &out) const
    {
        if (mat != nullptr)
            extractTransRows(*mat, t_bits, chunk, r0, r1, out);
        else
            extractTransRows(view, t_bits, chunk, r0, r1, out);
    }
};

/** Sub-tile geometry and sampling plan of one layer. */
struct TransArrayAccelerator::LayerGeom
{
    int t = 0;                 ///< bit-slice chunk width
    size_t tileRows = 0;       ///< rows per sub-tile
    size_t chunks = 0;         ///< column chunks
    uint64_t totalSubTiles = 0;
    uint64_t stride = 1;       ///< deterministic sampling stride
    uint64_t sampled = 0;      ///< sub-tiles actually executed
    uint64_t mTiles = 0;       ///< m-dimension tiles (eff. adders)
    size_t mCols = 0;

    bool degenerate() const { return totalSubTiles == 0 || mCols == 0; }
};

/**
 * Per-(layer, shard) partial results. Everything is an integer (or an
 * integer-merged SparsityStats), so the shard-order reduction in
 * finalizeLayer is bit-identical for any shard interleaving.
 */
struct TransArrayAccelerator::ShardAcc
{
    SparsityStats sparsity;
    uint64_t ppe = 0, ape = 0, xors = 0;
    uint64_t sorter = 0, sbNodes = 0, benes = 0;
    uint64_t weightBufRows = 0, count = 0;
    /** Local plan-cache outcome counts (host-volatile). */
    uint64_t cacheHits = 0, cacheMisses = 0;
};

TransArrayAccelerator::TransArrayAccelerator(Config config)
    : config_(config), unit_(config.unit), pool_(config.threads),
      ownPlanCache_(config.sharedPlanCache != nullptr
                        ? 0
                        : config.planCacheCapacity),
      planCache_(config.sharedPlanCache != nullptr
                     ? config.sharedPlanCache
                     : &ownPlanCache_),
      scratch_(static_cast<size_t>(pool_.threads()))
{
    TA_ASSERT(config_.units >= 1, "need at least one unit");
}

TransArrayAccelerator::LayerGeom
TransArrayAccelerator::layerGeometry(const WeightRef &w,
                                     size_t m_cols) const
{
    LayerGeom g;
    g.t = config_.unit.tBits;
    g.tileRows = config_.unit.maxTransRows;
    g.chunks = numChunks(w.cols(), g.t);
    const size_t row_tiles = ceilDiv(w.rows(), g.tileRows);
    g.totalSubTiles = row_tiles * g.chunks;
    g.mCols = m_cols;
    if (g.degenerate())
        return g;
    // Sec. 4.5: with 4-bit activations each 12-bit PPE splits into two
    // 6-bit PPEs, doubling the effective m-tile width.
    const uint64_t eff_adders =
        config_.unit.adders *
        std::max<uint64_t>(1, 8 / std::max(1, config_.actBits));
    g.mTiles = ceilDiv(m_cols, eff_adders);
    // Deterministic stride sampling of homogeneous sub-tiles.
    if (config_.sampleLimit > 0 && g.totalSubTiles > config_.sampleLimit)
        g.stride = ceilDiv(g.totalSubTiles, config_.sampleLimit);
    g.sampled = ceilDiv(g.totalSubTiles, g.stride);
    return g;
}

std::unique_ptr<StaticScoreboard>
TransArrayAccelerator::calibrateStatic(const WeightRef &w,
                                       const LayerGeom &g) const
{
    // Offline calibration: record every TransRow of the tensor (sampled
    // rows suffice for the shared SI).
    std::vector<uint32_t> all_values;
    std::vector<TransRow> rows;
    for (uint64_t s = 0; s < g.totalSubTiles; s += g.stride) {
        const size_t rt = s / g.chunks, ch = s % g.chunks;
        const size_t r0 = rt * g.tileRows;
        const size_t r1 = std::min(w.rows(), r0 + g.tileRows);
        w.extract(g.t, ch, r0, r1, rows);
        for (const auto &row : rows)
            all_values.push_back(row.value);
    }
    return std::make_unique<StaticScoreboard>(
        config_.unit.scoreboardConfig(), all_values);
}

void
TransArrayAccelerator::processSpan(const WeightRef &w,
                                   const LayerGeom &g,
                                   const StaticScoreboard *static_sb,
                                   ExecScratch &sc, ShardAcc &a,
                                   StageCosts *items, size_t i0,
                                   size_t i1) const
{
    const uint64_t oh = config_.mTileOverheadCycles;
    for (size_t i = i0; i < i1; ++i) {
        const uint64_t s = i * g.stride;
        const size_t rt = s / g.chunks, ch = s % g.chunks;
        const size_t r0 = rt * g.tileRows;
        const size_t r1 = std::min(w.rows(), r0 + g.tileRows);
        w.extract(g.t, ch, r0, r1, sc.rows);
        TransArrayUnit::SubTileResult res;
        if (static_sb != nullptr) {
            res = unit_.processSubTileStatic(*static_sb, sc.rows,
                                             sc.values);
        } else {
            sc.stageValues();
            bool built = false;
            const auto plan = planCache_->getOrBuild(sc.values, [&] {
                built = true;
                return unit_.scoreboard().build(sc.values, nullptr,
                                                sc.scoreboard);
            });
            built ? ++a.cacheMisses : ++a.cacheHits;
            res = unit_.processSubTilePlanned(*plan, sc.rows);
        }
        a.sparsity.merge(res.stats);
        const DispatchResult &d = res.dispatch;
        items[i] = {d.stage1Cycles(), (d.ppeCycles + oh) * g.mTiles,
                    (d.apeCycles + oh) * g.mTiles};
        a.ppe += d.ppeOps;
        a.ape += d.apeOps;
        a.xors += d.xorOps;
        a.sorter += d.sorterCompares;
        a.sbNodes += d.scoreboardNodes;
        a.benes += d.benesTraversals * g.mTiles;
        a.weightBufRows += sc.rows.size();
        ++a.count;
    }
}

LayerRun
TransArrayAccelerator::finalizeLayer(
    const WeightRef &w, size_t m_cols, const LayerGeom &g,
    const std::vector<ShardAcc> &accs,
    const std::vector<StageCosts> &items,
    const PlanCache::Counters *cache_delta) const
{
    LayerRun run;
    // ---- shard-order merge -------------------------------------------
    uint64_t sampled = 0;
    uint64_t ppe_ops = 0, ape_ops = 0, xor_ops = 0;
    uint64_t sorter_cmp = 0, sb_nodes = 0, benes_trips = 0;
    uint64_t weight_buf_rows = 0;
    uint64_t local_hits = 0, local_misses = 0;
    for (size_t s = 0; s < accs.size(); ++s) {
        const ShardAcc &a = accs[s];
        run.sparsity.merge(a.sparsity);
        sampled += a.count;
        ppe_ops += a.ppe;
        ape_ops += a.ape;
        xor_ops += a.xors;
        sorter_cmp += a.sorter;
        sb_nodes += a.sbNodes;
        benes_trips += a.benes;
        weight_buf_rows += a.weightBufRows;
        local_hits += a.cacheHits;
        local_misses += a.cacheMisses;
        run.exec.set("exec.shard" + std::to_string(s) + ".subTiles",
                     a.count);
    }
    run.exec.set("exec.layers", 1);
    run.exec.set("exec.sampledSubTiles", sampled);
    if (cache_delta != nullptr) {
        run.exec.set("planCache.hits", cache_delta->hits);
        run.exec.set("planCache.misses", cache_delta->misses);
        run.exec.set("planCache.evictions", cache_delta->evictions);
    } else {
        // Batched layers share the cache with other layers in flight:
        // report this layer's own lookup outcomes; evictions are not
        // attributable per layer (batch-level counters cover them).
        run.exec.set("planCache.hits", local_hits);
        run.exec.set("planCache.misses", local_misses);
    }

    const double scale = static_cast<double>(g.totalSubTiles) /
                         static_cast<double>(sampled);
    run.subTiles = g.totalSubTiles;

    // ---- timing -------------------------------------------------------
    const uint64_t pipeline_cycles =
        PipelineModel::steadyStateCycles(items, scale);
    run.computeCycles = ceilDiv(pipeline_cycles, config_.units);

    DramModel dram(config_.dramBytesPerCycle);
    const uint64_t weight_bytes =
        w.origRows() * w.cols() * w.wordBits() / 8;
    const uint64_t input_bytes =
        w.cols() * m_cols * config_.actBits / 8;
    const uint64_t output_bytes = w.origRows() * m_cols * 4;
    dram.read(weight_bytes + input_bytes);
    dram.write(output_bytes);
    run.dramBytes = dram.totalBytes();
    run.dramCycles = dram.transferCycles();
    run.cycles = std::max(run.computeCycles, run.dramCycles);

    // ---- energy ---------------------------------------------------------
    const EnergyParams &ep = config_.energy;
    EnergyBreakdown &e = run.energy;

    // Element-granularity op counts: each node/row op covers every
    // output column of the layer.
    const double ppe_elems = ppe_ops * scale * m_cols;
    const double ape_elems = ape_ops * scale * m_cols;
    const int t = g.t;
    BenesNetwork benes(std::max(2, t));
    e.core = ppe_elems * ep.addEnergy(12) + ape_elems * ep.addEnergy(24) +
             xor_ops * scale * ep.xorOp +
             sorter_cmp * scale * ep.sorterCompare +
             sb_nodes * scale * ep.scoreboardNode +
             benes_trips * scale * benes.numSwitches() * ep.benesSwitch +
             ape_elems * ep.shifterOp;
    if (config_.groupSize > 0) {
        // VPU group-wise rescale: one integer scale application per
        // output element per K-group (Sec. 4.5), overlapped with GEMM
        // so it costs energy but no cycles.
        const double rescales =
            ape_elems * t / static_cast<double>(config_.groupSize);
        e.core += rescales * ep.addEnergy(24);
    }

    // Buffer access energies (Table 1 capacities).
    const double bpe_in = config_.actBits / 8.0;
    e.weightBuf = weight_buf_rows * scale * (t / 8.0) *
                  (1.0 + g.mTiles) * ep.sramPerByte(8);
    e.inputBuf = ppe_elems * bpe_in * ep.sramPerByte(8);
    // The prefix buffer is distributed per lane (Sec. 4.4), so each
    // access touches a small 18/T KB bank: parent read + result write
    // per PPE op, one result read per APE op, 12-bit words.
    e.prefixBuf = (1.5 * ppe_elems + ape_elems) * 1.5 *
                  ep.sramPerByte(18.0 / t);
    // Bit-level partial results merge in the 24-bit APE accumulator
    // (shifter + add), so the 32-bit output buffer sees one
    // read-modify-write per original weight row, not per sliced row.
    e.outputBuf = ape_elems / w.wordBits() * 6.0 * ep.sramPerByte(22);
    e.otherBuf = 2.0 * run.dramBytes * ep.sramPerByte(24);

    e.dramDynamic = dram.dynamicEnergy(ep);
    e.dramStatic = ep.dramStaticEnergy(run.cycles);
    return run;
}

LayerRun
TransArrayAccelerator::runGemm(const MatI32 &w, int weight_bits,
                               size_t m_cols) const
{
    return runLayer(bitSlice(w, weight_bits), m_cols);
}

LayerRun
TransArrayAccelerator::rescaleToShape(LayerRun run,
                                      const GemmShape &shape,
                                      int weight_bits, size_t repr_rows,
                                      size_t repr_cols) const
{
    // A zero-area weight tensor (n == 0 or k == 0) has nothing to
    // rescale; 0/0 here would poison every derived number with NaN.
    const double f =
        repr_rows == 0 || repr_cols == 0
            ? 0.0
            : static_cast<double>(shape.n) * shape.k /
                  (static_cast<double>(repr_rows) * repr_cols);
    run.computeCycles = static_cast<uint64_t>(
        std::llround(run.computeCycles * f));
    run.subTiles = static_cast<uint64_t>(std::llround(run.subTiles * f));
    EnergyBreakdown &e = run.energy;
    e.core *= f;
    e.weightBuf *= f;
    e.inputBuf *= f;
    e.prefixBuf *= f;
    e.outputBuf *= f;

    // Recompute DRAM traffic and background energy for the true shape.
    const EnergyParams &ep = config_.energy;
    DramModel dram(config_.dramBytesPerCycle);
    dram.read(shape.n * shape.k * weight_bits / 8 +
              shape.k * shape.m * config_.actBits / 8);
    dram.write(shape.n * shape.m * 4);
    run.dramBytes = dram.totalBytes();
    run.dramCycles = dram.transferCycles();
    run.cycles = std::max(run.computeCycles, run.dramCycles);
    e.otherBuf = 2.0 * run.dramBytes * ep.sramPerByte(24);
    e.dramDynamic = dram.dynamicEnergy(ep);
    e.dramStatic = ep.dramStaticEnergy(run.cycles);
    return run;
}

LayerRun
TransArrayAccelerator::runShape(const GemmShape &shape, int weight_bits,
                                uint64_t seed, size_t repr_rows,
                                size_t repr_cols) const
{
    const auto [nr, kr] = reprDims(shape, repr_rows, repr_cols);
    std::vector<uint8_t> plane;
    return runShapeView(shape, weight_bits,
                        synthesizeSampled(nr, kr, weight_bits, seed,
                                          shape.m, plane));
}

WeightView
TransArrayAccelerator::synthesizeSampled(size_t repr_rows,
                                         size_t repr_cols,
                                         int weight_bits, uint64_t seed,
                                         size_t m_cols,
                                         std::vector<uint8_t> &plane) const
{
    // The geometry depends only on the plane's dimensions, so it is
    // known before a single weight exists.
    WeightView v;
    v.rowStride = ceilDiv(repr_cols, 8);
    v.rows = repr_rows * static_cast<size_t>(weight_bits);
    v.cols = repr_cols;
    v.wordBits = weight_bits;
    v.origRows = repr_rows;
    const LayerGeom g = layerGeometry(WeightRef(v), m_cols);

    // Mark every (source row, chunk) cell of the sampled sub-tiles —
    // the ones calibrateStatic and processSpan extract.
    std::vector<uint8_t> marked(repr_rows * g.chunks, 0);
    for (uint64_t i = 0; i < g.sampled; ++i) {
        const uint64_t s = i * g.stride;
        const size_t rt = s / g.chunks, ch = s % g.chunks;
        const size_t r0 = rt * g.tileRows;
        const size_t r1 = std::min(v.rows, r0 + g.tileRows);
        for (size_t r = r0 / v.wordBits; r <= (r1 - 1) / v.wordBits; ++r)
            marked[r * g.chunks + ch] = 1;
    }
    plane = realLikePackedCells(repr_rows, repr_cols, weight_bits, seed,
                                g.t, marked);
    v.data = plane.data();
    return v;
}

LayerRun
TransArrayAccelerator::runLayer(const SlicedMatrix &w,
                                size_t m_cols) const
{
    return runLayerRef(WeightRef(w), m_cols);
}

LayerRun
TransArrayAccelerator::runLayerView(const WeightView &v,
                                    size_t m_cols) const
{
    return runLayerRef(WeightRef(v), m_cols);
}

LayerRun
TransArrayAccelerator::runShapeView(const GemmShape &shape,
                                    int weight_bits,
                                    const WeightView &v) const
{
    return rescaleToShape(runLayerView(v, shape.m), shape, weight_bits,
                          v.origRows, v.cols);
}

LayerRun
TransArrayAccelerator::runLayerRef(const WeightRef &w,
                                   size_t m_cols) const
{
    const LayerGeom g = layerGeometry(w, m_cols);
    if (g.degenerate())
        return LayerRun(); // degenerate layer: nothing to do

    std::unique_ptr<StaticScoreboard> static_sb;
    if (config_.useStaticScoreboard)
        static_sb = calibrateStatic(w, g);

    const int shards = pool_.threads();
    const PlanCache::Counters cache_before = planCache_->counters();

    // Sampled sub-tiles are independent: shard them across the executor.
    // items[i] slots and per-shard accumulators (merged in shard order
    // in finalizeLayer) keep the result bit-identical to the serial
    // loop.
    std::vector<StageCosts> items(g.sampled);
    std::vector<ShardAcc> accs(shards);
    pool_.run(g.sampled, [&](int shard, size_t i0, size_t i1) {
        processSpan(w, g, static_sb.get(), scratch_[shard], accs[shard],
                    items.data(), i0, i1);
    });

    const PlanCache::Counters cache_after = planCache_->counters();
    const PlanCache::Counters delta{
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
        cache_after.evictions - cache_before.evictions};
    return finalizeLayer(w, m_cols, g, accs, items, &delta);
}

std::vector<LayerRun>
TransArrayAccelerator::runLayersBatched(
    const std::vector<BatchLayerRequest> &layers) const
{
    const size_t n = layers.size();
    std::vector<LayerRun> out(n);
    if (n == 0)
        return out;
    const int shards = pool_.threads();

    // Per-layer state, indexed by batch-local layer id. Tasks touch
    // only their own (layer, shard) slots. `planes` backs the
    // synthesized layers; view-bearing layers reference their pinned
    // segment pages instead and synthesize nothing.
    std::vector<std::vector<uint8_t>> planes(n);
    std::vector<WeightRef> weights(n);
    std::vector<LayerGeom> geoms(n);
    std::vector<std::pair<size_t, size_t>> repr(n);
    std::vector<std::unique_ptr<StaticScoreboard>> static_sbs(n);
    std::vector<std::vector<StageCosts>> items(n);
    std::vector<std::vector<ShardAcc>> accs(n);

    BatchScheduler sched(pool_);
    sched.run(
        n,
        // Phase 1: sampled weight synthesis + geometry + static
        // calibration, parallel across the window's layers.
        [&](size_t l) -> size_t {
            const BatchLayerRequest &r = layers[l];
            if (r.view != nullptr) {
                repr[l] = {r.view->origRows, r.view->cols};
                weights[l] = WeightRef(*r.view);
            } else {
                repr[l] = reprDims(r.shape, r.reprRows, r.reprCols);
                weights[l] = WeightRef(synthesizeSampled(
                    repr[l].first, repr[l].second, r.weightBits, r.seed,
                    r.shape.m, planes[l]));
            }
            geoms[l] = layerGeometry(weights[l], r.shape.m);
            if (geoms[l].degenerate())
                return 0;
            if (config_.useStaticScoreboard)
                static_sbs[l] = calibrateStatic(weights[l], geoms[l]);
            items[l].assign(geoms[l].sampled, StageCosts{});
            accs[l].assign(shards, ShardAcc{});
            return geoms[l].sampled;
        },
        // Phase 2: every (layer, shard) sub-tile slot of the window in
        // flight on the one pool.
        [&](const LayerTask &task, int worker) {
            const size_t l = task.layer;
            processSpan(weights[l], geoms[l], static_sbs[l].get(),
                        scratch_[worker], accs[l][task.shard],
                        items[l].data(), task.begin, task.end);
        });

    // Phase 3: shard-order reduction per layer, then the runShape
    // full-shape rescale — the exact serial arithmetic.
    for (size_t l = 0; l < n; ++l) {
        const BatchLayerRequest &r = layers[l];
        LayerRun run;
        if (!geoms[l].degenerate())
            run = finalizeLayer(weights[l], r.shape.m, geoms[l], accs[l],
                                items[l], nullptr);
        out[l] = rescaleToShape(std::move(run), r.shape, r.weightBits,
                                repr[l].first, repr[l].second);
    }
    return out;
}

} // namespace ta
