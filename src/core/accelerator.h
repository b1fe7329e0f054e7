/**
 * @file
 * The full Transitive Array accelerator (Fig. 7(a)): six TransArray
 * units sharing a scoreboard and DRAM interface. Runs whole GEMM layers
 * with the paper's tiling (Sec. 4.1), reporting cycles, DRAM traffic and
 * the Fig. 11 energy breakdown. Large layers are sampled: sub-tiles are
 * strided deterministically and counts re-scaled, which is exact in
 * expectation for the homogeneous tensors the paper evaluates. Weights
 * a shape-level run synthesizes are synthesized only where its sampled
 * sub-tiles read them.
 */

#ifndef TA_CORE_ACCELERATOR_H
#define TA_CORE_ACCELERATOR_H

#include <memory>

#include "common/stats.h"
#include "core/pipeline.h"
#include "core/ta_unit.h"
#include "exec/parallel_executor.h"
#include "exec/plan_cache.h"
#include "exec/scratch_arena.h"
#include "sim/dram.h"
#include "sim/energy_model.h"
#include "workloads/gemm_workload.h"

namespace ta {

class StaticScoreboard;

/** Per-layer simulation result. */
struct LayerRun
{
    uint64_t computeCycles = 0;
    uint64_t dramCycles = 0;
    uint64_t cycles = 0;      ///< max(compute, dram) + fill
    uint64_t dramBytes = 0;
    EnergyBreakdown energy;
    SparsityStats sparsity;
    uint64_t subTiles = 0;
    /**
     * Host-execution counters (exec.threads, per-shard sub-tile counts,
     * planCache.hits/misses/evictions delta). Cache hit/miss splits may
     * vary with the thread count (concurrent misses double-build);
     * every simulation result above is thread-count-invariant.
     */
    StatGroup exec;

    /** Accumulate another layer (model-level totals). */
    LayerRun &operator+=(const LayerRun &o);
};

/**
 * Default representative-tensor cap shared by runShape and
 * BatchLayerRequest — one definition, so batched and per-layer
 * dispatch can never synthesize different tensors by default.
 */
constexpr size_t kDefaultReprRows = 256;
constexpr size_t kDefaultReprCols = 4096;

/**
 * One layer of a batch window handed to
 * TransArrayAccelerator::runLayersBatched — the batched counterpart of
 * a runShape(shape, weightBits, seed, reprRows, reprCols) call: without
 * a view, phase 1 synthesizes the cells the layer's sampled sub-tiles
 * read, exactly as runShape does.
 */
struct BatchLayerRequest
{
    GemmShape shape;
    int weightBits = 4;
    uint64_t seed = 0;
    size_t reprRows = kDefaultReprRows;
    size_t reprCols = kDefaultReprCols;
    /**
     * Optional pre-packed weight plane (the storage tier's pinned
     * WeightView). When set, phase 1 skips synthesis and the engine
     * reads the plane zero-copy; the view's (origRows, cols) stand in
     * for the repr dims. Non-owning — the pin must outlive the batch
     * call. Byte-identity with the synthesis path holds exactly when
     * the view was packed from realLikeSlicedWeights(reprDims(shape),
     * weightBits, seed) — which is what a validated catalog stores.
     */
    const WeightView *view = nullptr;
};

class TransArrayAccelerator
{
  public:
    struct Config
    {
        TransArrayUnit::Config unit;
        uint32_t units = 6;
        int actBits = 8;          ///< activation width (8 or 4)
        /**
         * Group-wise quantization group size (Sec. 4.5): the VPU
         * re-scales partial results once per 128/T sub-tiles; 0
         * disables rescaling (per-tensor scales).
         */
        uint32_t groupSize = 128;
        EnergyParams energy;
        double dramBytesPerCycle = 25.6;
        /** Max sub-tiles actually simulated per layer (0 = all). */
        size_t sampleLimit = 512;
        bool useStaticScoreboard = false;
        /**
         * Fixed cycles per (sub-tile, m-tile) pass covering the prefix
         * double-buffer swap, output drain and weight FIFO refill that
         * the per-op model does not see.
         */
        uint64_t mTileOverheadCycles = 8;
        /** Host executor threads; 0 = TA_THREADS env or 1. */
        int threads = 0;
        /** Cached scoreboard plans (0 disables the cache). */
        size_t planCacheCapacity = 4096;
        /**
         * Optional process-wide plan cache shared across accelerators
         * (the service front-end's cross-request cache). Non-owning;
         * must outlive the accelerator, must belong to the same
         * ScoreboardConfig as `unit`, and supersedes
         * planCacheCapacity. PlanCache is internally thread-safe, so
         * engines may share it concurrently; sharing never changes
         * simulated results (plans are pure), only hit/miss splits.
         */
        PlanCache *sharedPlanCache = nullptr;
    };

    explicit TransArrayAccelerator(Config config);

    const Config &config() const { return config_; }

    /**
     * Simulate one GEMM layer: sliced weights (S*N x K) times an
     * (K x m_cols) activation. Only the weight bit patterns matter for
     * timing; activations contribute traffic and element counts.
     */
    LayerRun runLayer(const SlicedMatrix &w, size_t m_cols) const;

    /**
     * runLayer over a bit-packed zero-copy weight plane (the storage
     * tier's WeightView). Bit-identical to runLayer on the
     * SlicedMatrix the view was packed from — both routes feed the
     * same extraction/geometry/merge machinery.
     */
    LayerRun runLayerView(const WeightView &v, size_t m_cols) const;

    /** Convenience: slice an integer weight matrix first. */
    LayerRun runGemm(const MatI32 &w, int weight_bits,
                     size_t m_cols) const;

    /**
     * Simulate a full GEMM shape with representative synthetic
     * real-like weights: a capped (repr_rows x repr_cols) tensor is
     * simulated and compute-side results re-scaled to the full shape
     * (exact in expectation — the tensors are statistically
     * homogeneous), while DRAM traffic and static energy are recomputed
     * for the true dimensions. This is how the Fig. 10/12/14 harnesses
     * run multi-billion-MAC layers on a laptop.
     *
     * The tensor is synthesized straight into the packed WeightView
     * layout, and only in the (row, chunk) cells of the sampled
     * sub-tiles (realLikePackedCells), then run as runShapeView runs a
     * catalog plane. Those cells hold exactly the bits of
     * realLikeSlicedWeights(repr dims, weight_bits, seed), so the result
     * equals runShapeView over the fully synthesized, packed tensor.
     */
    LayerRun runShape(const GemmShape &shape, int weight_bits,
                      uint64_t seed,
                      size_t repr_rows = kDefaultReprRows,
                      size_t repr_cols = kDefaultReprCols) const;

    /**
     * runShape with the representative tensor supplied as a packed
     * WeightView instead of synthesized: the view's (origRows, cols)
     * are the repr dims for the full-shape rescale. Byte-identical to
     * runShape(shape, weight_bits, seed) exactly when the view holds
     * packSlicedBits(realLikeSlicedWeights(reprDims(shape, ...),
     * weight_bits, seed)) — the catalog-serving contract.
     */
    LayerRun runShapeView(const GemmShape &shape, int weight_bits,
                          const WeightView &v) const;

    /**
     * Batch-level sharded execution: run a whole window of layers with
     * multiple layers in flight on the one executor. Weight synthesis
     * and static-scoreboard calibration are parallelized across layers
     * (phase 1), then every (layer, shard) sub-tile slot of the window
     * drains through a single BatchScheduler pass (phase 2), and each
     * layer is reduced in shard order (phase 3).
     *
     * Determinism: out[i] is byte-identical to
     * runShape(layers[i].shape, ...) called serially, for any thread
     * count and any task interleaving — each layer keeps the per-layer
     * shard partition and shard-order merge, and all cross-thread
     * accumulation is integer. The only exception is the host-volatile
     * `exec` group: plan-cache hit/miss splits can shift when layers
     * share sub-tile plans in flight, and per-layer eviction counts are
     * not attributable (the key is omitted). Plan-cache lookups stay
     * per-layer sub-tile keyed, so warm batches keep their hit rate.
     */
    std::vector<LayerRun>
    runLayersBatched(const std::vector<BatchLayerRequest> &layers) const;

    /** Resolved executor width. */
    int threads() const { return pool_.threads(); }

    /** Lifetime plan-cache counters (layers accumulate). */
    PlanCache::Counters planCacheCounters() const
    {
        return planCache_->counters();
    }

    /**
     * The accelerator's plan cache — the owned one by default, or the
     * config's sharedPlanCache when set. Exposed so a PlanCacheStore
     * can warm-start it before the first layer (mutable access) and
     * capture it for persistence afterwards (const access). Entries
     * belong to config().unit.scoreboardConfig().
     */
    PlanCache &planCache() { return *planCache_; }
    const PlanCache &planCache() const { return *planCache_; }

    /** Cumulative per-worker busy time (host utilization view). */
    const std::vector<uint64_t> &shardBusyNanos() const
    {
        return pool_.shardBusyNanos();
    }

  private:
    // Shared layer machinery: the serial runLayer path, the view path
    // and the batched runLayersBatched path all route through the same
    // geometry / span-processing / shard-order-merge helpers over a
    // WeightRef (SlicedMatrix or packed WeightView behind one face),
    // so their arithmetic cannot diverge. Synthesized shapes and
    // catalog planes both arrive as views; a SlicedMatrix only comes
    // from callers of runLayer. Defined in accelerator.cc.
    struct LayerGeom;
    struct ShardAcc;
    struct WeightRef;

    /** runLayer over either weight representation. */
    LayerRun runLayerRef(const WeightRef &w, size_t m_cols) const;

    /**
     * The synthesis of runShape and runLayersBatched: computes the
     * layer geometry from the repr dims, marks the cells of the sampled
     * sub-tiles (all of them when every sub-tile is sampled) and
     * synthesizes just those into `plane`. Returns the view over it.
     */
    WeightView synthesizeSampled(size_t repr_rows, size_t repr_cols,
                                 int weight_bits, uint64_t seed,
                                 size_t m_cols,
                                 std::vector<uint8_t> &plane) const;

    /** Sub-tile geometry and sampling plan of one layer. */
    LayerGeom layerGeometry(const WeightRef &w, size_t m_cols) const;

    /** Offline static-SI calibration over the sampled sub-tiles. */
    std::unique_ptr<StaticScoreboard>
    calibrateStatic(const WeightRef &w, const LayerGeom &g) const;

    /** Process sampled sub-tiles [i0, i1) into `acc` and `items`. */
    void processSpan(const WeightRef &w, const LayerGeom &g,
                     const StaticScoreboard *static_sb, ExecScratch &sc,
                     ShardAcc &acc, StageCosts *items, size_t i0,
                     size_t i1) const;

    /**
     * Merge shard accumulators in shard order and derive the LayerRun
     * (timing, DRAM, energy). `cache_delta` carries the global
     * plan-cache counter delta when one layer ran alone (serial path);
     * batched layers pass nullptr and report their local hit/miss
     * counts instead.
     */
    LayerRun finalizeLayer(const WeightRef &w, size_t m_cols,
                           const LayerGeom &g,
                           const std::vector<ShardAcc> &accs,
                           const std::vector<StageCosts> &items,
                           const PlanCache::Counters *cache_delta) const;

    /** runShape's full-shape rescale of a representative-tensor run. */
    LayerRun rescaleToShape(LayerRun run, const GemmShape &shape,
                            int weight_bits, size_t repr_rows,
                            size_t repr_cols) const;

    Config config_;
    TransArrayUnit unit_;
    mutable ParallelExecutor pool_;
    /** Backing storage when no shared cache is configured. */
    mutable PlanCache ownPlanCache_;
    /** The cache in use: &ownPlanCache_ or config_.sharedPlanCache. */
    PlanCache *planCache_;
    /**
     * One arena per executor shard, reused across layers so warmed
     * buffers survive a whole model suite. Only touched inside
     * pool_.run(), which serializes calls.
     */
    mutable std::vector<ExecScratch> scratch_;
};

} // namespace ta

#endif // TA_CORE_ACCELERATOR_H
