/**
 * @file
 * ta_sim: command-line driver for the simulator. Runs one GEMM through
 * the TransArray model (and optionally every baseline) and prints
 * cycles, the energy breakdown and the transitive-sparsity statistics.
 *
 * Usage:
 *   ta_sim [--n N] [--k K] [--m M] [--wbits B] [--abits B]
 *          [--tbits T] [--maxdist D] [--units U] [--static]
 *          [--baselines] [--seed S] [--samples LIMIT] [--threads N]
 *          [--plan-cache FILE] [--batch N] [--response]
 *
 * Host threading: --threads N shards the sub-tile loop across N worker
 * threads (results are bit-identical for any N); defaults to the
 * TA_THREADS environment variable, else 1.
 *
 * Batched dispatch: --batch N runs N instances of the GEMM as one
 * batch window with multiple layers in flight on the executor
 * (runLayersBatched); instance i draws weights with the layerSeed()
 * rule seed+i, so instance 0 reproduces the --batch 1 run exactly.
 *
 * Plan persistence: --plan-cache FILE warm-starts the scoreboard plan
 * cache from a previous run's snapshot and saves the merged snapshot
 * back on exit (simulated results are unaffected — plans are pure).
 *
 * Service protocol: --response prints only the canonical response
 * line of docs/SERVICE.md for this request (id 0) — the standalone
 * reference a `ta_serve` response must match byte for byte.
 *
 * Numeric flags are validated (garbage, out-of-range and sign errors
 * are rejected with a clear message instead of silently becoming 0).
 *
 * Example (LLaMA-7B q_proj at int4):
 *   ta_sim --n 4096 --k 4096 --m 2048 --wbits 4 --baselines
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baselines/baseline.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/accelerator.h"
#include "exec/parallel_executor.h"
#include "harness/plan_cache_store.h"
#include "kernels/kernel_table.h"
#include "service/protocol.h"
#include "workloads/suite_runner.h"

using namespace ta;

namespace {

struct Options
{
    ServiceRequest req; ///< shape/engine fields share ta_serve defaults
    bool baselines = false;
    bool response = false;
    int threads = ParallelExecutor::defaultThreads();
    std::string planCache;
    size_t batch = 1;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--n N] [--k K] [--m M] [--wbits B] [--abits B]\n"
        "          [--tbits T] [--maxdist D] [--units U] [--static]\n"
        "          [--baselines] [--seed S] [--samples LIMIT]\n"
        "          [--threads N] [--plan-cache FILE] [--batch N]\n"
        "          [--kernels scalar|avx2|neon|auto] [--response]\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    ServiceRequest &r = opt.req;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--static") {
            r.useStatic = true;
            continue;
        }
        if (a == "--baselines") {
            opt.baselines = true;
            continue;
        }
        if (a == "--response") {
            opt.response = true;
            continue;
        }
        if (a == "--help" || a == "-h")
            return false;
        const bool known =
            a == "--n" || a == "--k" || a == "--m" || a == "--wbits" ||
            a == "--abits" || a == "--tbits" || a == "--maxdist" ||
            a == "--units" || a == "--seed" || a == "--samples" ||
            a == "--threads" || a == "--plan-cache" ||
            a == "--batch" || a == "--kernels";
        if (!known) {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            return false;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", a.c_str());
            return false;
        }
        const char *v = argv[++i];
        bool ok = true;
        constexpr uint64_t kMaxDim = 1ull << 24;
        if (a == "--n")
            ok = parseU64Flag(a, v, 0, kMaxDim, r.shape.n);
        else if (a == "--k")
            ok = parseU64Flag(a, v, 0, kMaxDim, r.shape.k);
        else if (a == "--m")
            ok = parseU64Flag(a, v, 0, kMaxDim, r.shape.m);
        else if (a == "--wbits")
            ok = parseIntFlag(a, v, 2, 16, r.wbits);
        else if (a == "--abits")
            ok = parseIntFlag(a, v, 1, 8, r.abits);
        else if (a == "--tbits")
            ok = parseIntFlag(a, v, 1, 16, r.tbits);
        else if (a == "--maxdist")
            ok = parseIntFlag(a, v, 0, 64, r.maxdist);
        else if (a == "--units") {
            int units = 0;
            ok = parseIntFlag(a, v, 1, 64, units);
            r.units = static_cast<uint32_t>(units);
        } else if (a == "--seed")
            ok = parseU64Flag(a, v, 0, ~0ull, r.seed);
        else if (a == "--samples")
            ok = parseSizeFlag(a, v, 0, 1u << 20, r.samples);
        else if (a == "--threads")
            ok = parseIntFlag(a, v, 1, 256, opt.threads);
        else if (a == "--plan-cache")
            opt.planCache = v;
        else if (a == "--batch")
            ok = parseSizeFlag(a, v, 1, 4096, opt.batch);
        else if (a == "--kernels") {
            std::string err;
            ok = setKernels(v, &err);
            if (!ok)
                std::fprintf(stderr, "--kernels: %s\n", err.c_str());
        }
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }
    const ServiceRequest &req = opt.req;

    // The one engine builder shared with ta_serve and ta_loadgen, so
    // "the same request" always selects the same configuration.
    TransArrayAccelerator::Config cfg =
        engineConfig(engineKeyOf(req), opt.threads);
    TransArrayAccelerator acc(cfg); // non-const: --plan-cache warm-start

    PlanCacheStore store;
    const ScoreboardConfig sc = cfg.unit.scoreboardConfig();
    if (!opt.planCache.empty() && opt.response) {
        // --response keeps stdout protocol-clean: load silently.
        if (store.loadFile(opt.planCache))
            store.restore(sc, acc.planCache());
    } else if (!opt.planCache.empty() &&
               loadPlanCacheFile(store, opt.planCache)) {
        store.restore(sc, acc.planCache());
    }

    if (opt.response) {
        const LayerRun run = acc.runShape(req.shape, req.wbits,
                                          req.seed);
        std::printf("%s\n", serializeResponse(req, run).c_str());
        if (!opt.planCache.empty()) {
            store.capture(sc, acc.planCache());
            store.saveFile(opt.planCache);
        }
        return 0;
    }

    std::printf("GEMM %llu x %llu x %llu, int%d weights, int%d "
                "activations (%.2f GMACs)\n",
                static_cast<unsigned long long>(req.shape.n),
                static_cast<unsigned long long>(req.shape.k),
                static_cast<unsigned long long>(req.shape.m), req.wbits,
                req.abits, req.shape.macs() / 1e9);
    std::printf("TransArray: T=%d, maxDistance=%d, %u units, %s "
                "scoreboard, %d host thread(s)\n\n",
                req.tbits, req.maxdist, req.units,
                req.useStatic ? "static" : "dynamic", acc.threads());

    // --batch N keeps N instances of the GEMM in flight on the
    // executor; instance i seeds with layerSeed(seed, i) = seed + i, so
    // instance 0 is byte-identical to the unbatched run and the table
    // below is unchanged by the batch width.
    LayerRun ta;
    double batch_secs = 0;
    uint64_t batch_cycles = 0;
    uint64_t sampled_total = 0;
    if (opt.batch > 1) {
        std::vector<BatchLayerRequest> reqs(opt.batch);
        for (size_t i = 0; i < opt.batch; ++i)
            reqs[i] = BatchLayerRequest{req.shape, req.wbits,
                                        layerSeed(req.seed, i)};
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<LayerRun> runs = acc.runLayersBatched(reqs);
        batch_secs = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        for (const LayerRun &r : runs) {
            batch_cycles += r.cycles;
            sampled_total += r.exec.get("exec.sampledSubTiles");
        }
        ta = runs.front();
    } else {
        ta = acc.runShape(req.shape, req.wbits, req.seed);
        sampled_total = ta.exec.get("exec.sampledSubTiles");
    }

    Table t("results");
    t.setHeader({"Arch", "Cycles", "ms @500MHz", "Energy (uJ)",
                 "Speedup vs TA"});
    auto row = [&](const std::string &name, const LayerRun &r) {
        t.addRow({name, std::to_string(r.cycles),
                  Table::fmt(r.cycles / 500e3, 3),
                  Table::fmt(r.energy.total() / 1e6, 2),
                  Table::fmt(static_cast<double>(r.cycles) / ta.cycles,
                             2)});
    };
    row("TransArray-" + std::to_string(req.wbits) + "bit", ta);
    if (opt.baselines) {
        for (const char *name :
             {"BitFusion", "ANT", "Olive", "Tender", "BitVert"}) {
            const LayerRun r = makeBaseline(name)->runGemm(
                req.shape, std::max(req.wbits, 4), req.abits, 0.5);
            row(name, r);
        }
    }
    t.print();

    const SparsityStats &s = ta.sparsity;
    std::printf("transitive density %.2f%% (bit sparsity %.1f%%): "
                "PR %.1f%% FR %.1f%% TR %.2f%% ZR rows %.1f%%\n",
                100 * s.totalDensity(), 100 * s.bitDensity(),
                100 * s.prDensity(), 100 * s.frDensity(),
                100 * s.trDensity(), 100 * s.zrSparsity());
    std::printf("compute %llu cycles, DRAM %llu cycles -> %s-bound\n",
                static_cast<unsigned long long>(ta.computeCycles),
                static_cast<unsigned long long>(ta.dramCycles),
                ta.computeCycles >= ta.dramCycles ? "compute" : "DRAM");
    if (opt.batch > 1) {
        std::printf("batched dispatch: %zu layers in flight, %llu total "
                    "cycles, %.3fs host wall (%.1f layers/s)\n",
                    opt.batch,
                    static_cast<unsigned long long>(batch_cycles),
                    batch_secs, opt.batch / batch_secs);
    }
    const PlanCache::Counters pc = acc.planCacheCounters();
    // With --batch > 1 the counts cover every instance, matching the
    // accelerator-lifetime plan-cache counters on the same line.
    std::printf("host: %llu sampled sub-tiles, plan cache %llu hits / "
                "%llu misses (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(sampled_total),
                static_cast<unsigned long long>(pc.hits),
                static_cast<unsigned long long>(pc.misses),
                100.0 * pc.hitRate());
    if (!opt.planCache.empty()) {
        store.capture(sc, acc.planCache());
        savePlanCacheFile(store, opt.planCache);
    }
    return 0;
}
