/**
 * @file
 * ta_layer_probe: per-layer host time of one benchmark workload.
 *
 *   ta_layer_probe --workload NAME [--seed N] [--catalog DIR]
 *                  [--trace-out FILE]
 *
 * Replays the first requests of the workload's closed-loop stream
 * (offline_suite: the layers of its first pass) on one thread through
 * the public calls a server makes for a request, in the server's
 * order, with the server's engineConfig:
 *
 *   protocol   parseRequestLine, serializeResponse
 *   service    WindowPlanner::predictMs
 *   storage    BufferManager::pin (catalog requests, same page budget)
 *   workloads  realLikeSlicedWeights (requests the server synthesizes)
 *   core       runLayer / runLayerView on the ready weights
 *
 * Each request gets a `probe.request` span with one child span per
 * call; probe.unattributed_frac is the share of request time no child
 * covers. Outside those spans it also times the static-scoreboard
 * engine, Scoreboard::build and a resident PlanCache::getOrBuild on
 * sampled sub-tile values, and serial runShape against
 * runLayersBatched over same-key windows (core.batch_gain).
 *
 * Prints one `metric value` line per metric. Only this probe calls
 * internal layer APIs, so a later change to one of them breaks the
 * traced per-layer run, never the end-to-end measurement.
 */

#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "common/cli.h"
#include "common/stats.h"
#include "exec/plan_cache.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "storage/buffer_manager.h"
#include "workloads.h"
#include "workloads/generators.h"

using namespace tabench;
using ta::ServiceRequest;

namespace {

using Engines =
    std::map<ta::EngineKey, std::unique_ptr<ta::TransArrayAccelerator>>;

ta::TransArrayAccelerator &
engineFor(Engines &engines, const ta::EngineKey &key, int threads)
{
    auto &eng = engines[key];
    if (!eng)
        eng = std::make_unique<ta::TransArrayAccelerator>(
            ta::engineConfig(key, threads));
    return *eng;
}

/** Span recorder for one probe request: children under one root. */
class RequestSpans
{
  public:
    /** `index` numbers the request; its trace id is a bijective mix
     *  of it, so no two probe requests share one. */
    explicit RequestSpans(uint64_t index)
        : tracer_(ta::obs::Tracer::instance()),
          trace_(std::max<uint64_t>(
              1, mixSeed(static_cast<uint64_t>(::getpid()), index))),
          root_(tracer_.mintSpanId()), t0_(ta::obs::Tracer::nowNs())
    {
    }

    /** Record child `name` over [t0, now); returns its duration (ns). */
    uint64_t
    child(const char *name, uint64_t t0)
    {
        const uint64_t t1 = ta::obs::Tracer::nowNs();
        record(name, tracer_.mintSpanId(), root_, t0, t1);
        children_ += t1 - t0;
        return t1 - t0;
    }

    /** Close the root span; returns (root ns, children ns). */
    std::pair<uint64_t, uint64_t>
    finish()
    {
        const uint64_t t1 = ta::obs::Tracer::nowNs();
        record("probe.request", root_, 0, t0_, t1);
        return {t1 - t0_, children_};
    }

  private:
    void
    record(const char *name, uint64_t id, uint64_t parent, uint64_t t0,
           uint64_t t1)
    {
        ta::obs::Span s;
        s.traceId = trace_;
        s.spanId = id;
        s.parent = parent;
        s.name = name;
        s.t0Ns = t0;
        s.t1Ns = t1;
        tracer_.record(s);
    }

    ta::obs::Tracer &tracer_;
    uint64_t trace_;
    uint64_t root_;
    uint64_t t0_;
    uint64_t children_ = 0;
};

/** The weights a request runs on: synthesized, or a catalog pin. */
struct ReadyWeights
{
    ta::SlicedMatrix sliced;
    ta::BufferManager::Pin pin;

    bool isView() const { return pin.ok(); }
};

ta::LayerRun
runLayerOn(const ta::TransArrayAccelerator &acc, const ReadyWeights &w,
           size_t m)
{
    return w.isView() ? acc.runLayerView(w.pin.view(), m)
                      : acc.runLayer(w.sliced, m);
}

/** TransRow values of one sub-tile (column chunk, first row tile). */
std::vector<uint32_t>
subTileValues(const ReadyWeights &w, const ta::TransArrayAccelerator &acc,
              size_t pick)
{
    const auto &unit = acc.config().unit;
    const size_t rows = w.isView() ? w.pin.view().rows
                                   : w.sliced.bits.rows();
    const size_t cols = w.isView() ? w.pin.view().cols
                                   : w.sliced.bits.cols();
    const size_t chunk = pick % ta::numChunks(cols, unit.tBits);
    const size_t r1 = std::min(rows, unit.maxTransRows);
    std::vector<ta::TransRow> trs;
    if (w.isView())
        ta::extractTransRows(w.pin.view(), unit.tBits, chunk, 0, r1, trs);
    else
        ta::extractTransRows(w.sliced, unit.tBits, chunk, 0, r1, trs);
    std::vector<uint32_t> values;
    for (const ta::TransRow &t : trs)
        values.push_back(t.value);
    return values;
}

std::pair<uint64_t, uint64_t>
reprDims(const ServiceRequest &r)
{
    return {std::min<uint64_t>(r.shape.n, ta::kDefaultReprRows),
            std::min<uint64_t>(r.shape.k, ta::kDefaultReprCols)};
}

/** Pin a catalog request's plane; false when the catalog lacks it. */
bool
pinPlane(ta::BufferManager &buffers, const ServiceRequest &r,
         ta::BufferManager::Pin &pin)
{
    const auto [nr, kr] = reprDims(r);
    const ta::CatalogEntry *e =
        buffers.findEntry(r.model, r.seed, r.wbits, nr, kr);
    std::string err;
    if (e != nullptr)
        pin = buffers.pin(*e, &err);
    return pin.ok();
}

double
nowMs()
{
    return static_cast<double>(ta::obs::Tracer::nowNs()) / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, catalog, trace_out;
    uint64_t seed = 1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        if (a == "--workload")
            workload = argv[i + 1];
        else if (a == "--catalog")
            catalog = argv[i + 1];
        else if (a == "--trace-out")
            trace_out = argv[i + 1];
        else if (a != "--seed" ||
                 !ta::parseU64Flag(a, argv[i + 1], 0, 1ull << 40, seed)) {
            std::fprintf(stderr, "ta_layer_probe: bad flag %s\n", a.c_str());
            return 2;
        }
    }
    const WorkloadSpec *spec = findWorkload(workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "ta_layer_probe: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    if (!trace_out.empty())
        ta::obs::Tracer::instance().enable(trace_out, "ta_layer_probe");

    std::vector<ServiceRequest> reqs;
    if (spec->kind == WorkloadKind::Offline) {
        reqs = offlineRequests(passSeed(seed, 0));
    } else {
        const RequestStream stream(*spec, seed);
        for (size_t i = 0; i < spec->probeRequests; ++i)
            reqs.push_back(stream.at(Phase::Closed, i));
    }
    std::unique_ptr<ta::BufferManager> buffers;
    if (!catalog.empty()) {
        ta::BufferManager::Config bc;
        bc.bufferPages = kBufferPages;
        buffers = std::make_unique<ta::BufferManager>(bc);
        std::string err;
        if (!buffers->openCatalog(catalog, &err)) {
            std::fprintf(stderr, "ta_layer_probe: %s\n", err.c_str());
            return 1;
        }
    }

    const ta::WindowPlanner planner;
    Engines engines, static_engines;
    std::map<ta::EngineKey, ta::Scoreboard> scoreboards;
    std::map<std::string, std::vector<double>> us; // per-call samples
    std::vector<double> pin_hit_us, pin_miss_us, synth_ms, layer_ms,
        static_ms;
    uint64_t request_ns = 0, attributed_ns = 0;
    std::set<std::string> synthesized;

    for (size_t i = 0; i < reqs.size(); ++i) {
        const ServiceRequest &r = reqs[i];
        const ta::EngineKey key = ta::engineKeyOf(r);
        ta::TransArrayAccelerator &acc = engineFor(engines, key, 1);
        const std::string line = ta::serializeRequest(r);
        ReadyWeights w;

        RequestSpans spans(i + 1);
        uint64_t t0 = ta::obs::Tracer::nowNs();
        ServiceRequest parsed;
        std::string err;
        if (!ta::parseRequestLine(line, parsed, err)) {
            std::fprintf(stderr, "ta_layer_probe: %s\n", err.c_str());
            return 1;
        }
        us["parse"].push_back(spans.child("probe.parse", t0) / 1e3);
        t0 = ta::obs::Tracer::nowNs();
        volatile double predicted = planner.predictMs(parsed);
        (void)predicted;
        us["predict"].push_back(spans.child("probe.predict", t0) / 1e3);
        t0 = ta::obs::Tracer::nowNs();
        if (!r.model.empty()) {
            const uint64_t misses = buffers ? buffers->counters().misses : 0;
            if (!buffers || !pinPlane(*buffers, r, w.pin)) {
                std::fprintf(stderr, "ta_layer_probe: no plane for %s\n",
                             line.c_str());
                return 1;
            }
            const double pin = spans.child("probe.pin", t0) / 1e3;
            (buffers->counters().misses > misses ? pin_miss_us
                                                 : pin_hit_us)
                .push_back(pin);
        } else {
            const auto [nr, kr] = reprDims(r);
            w.sliced = ta::realLikeSlicedWeights(nr, kr, r.wbits, r.seed);
            synth_ms.push_back(spans.child("probe.synth", t0) / 1e6);
        }
        t0 = ta::obs::Tracer::nowNs();
        const ta::LayerRun run = runLayerOn(acc, w, r.shape.m);
        layer_ms.push_back(spans.child("probe.layer", t0) / 1e6);
        t0 = ta::obs::Tracer::nowNs();
        const std::string response = ta::serializeResponse(r, run);
        us["serialize"].push_back(spans.child("probe.serialize", t0) / 1e3);
        if (response.find("\"ok\":1") == std::string::npos)
            return 1;
        const auto [total, children] = spans.finish();
        request_ns += total;
        attributed_ns += children;

        // Outside the request: the static engine on the same weights,
        // and the scoreboard and plan-cache calls on one sub-tile.
        ta::EngineKey skey = key;
        skey.useStatic = true;
        const ta::TransArrayAccelerator &sacc =
            engineFor(static_engines, skey, 1);
        double a = nowMs();
        runLayerOn(sacc, w, r.shape.m);
        static_ms.push_back(nowMs() - a);

        const std::vector<uint32_t> values = subTileValues(w, acc, i);
        const ta::Scoreboard &sb =
            scoreboards
                .try_emplace(key, acc.config().unit.scoreboardConfig())
                .first->second;
        a = nowMs();
        ta::Plan plan = sb.build(values);
        us["build"].push_back((nowMs() - a) * 1e3);
        ta::PlanCache cache(16);
        const auto build = [&] { return plan; };
        cache.getOrBuild(values, build);
        a = nowMs();
        cache.getOrBuild(values, build);
        us["plan_hit"].push_back((nowMs() - a) * 1e3);

        // Catalog requests skip synthesis; time it once per plane so
        // the metric still reads what synthesis would cost.
        if (!r.model.empty() && synthesized.insert(requestKey(r)).second) {
            const auto [nr, kr] = reprDims(r);
            a = nowMs();
            ta::realLikeSlicedWeights(nr, kr, r.wbits, r.seed);
            synth_ms.push_back(nowMs() - a);
        }
    }

    // core.batch_gain: serial runShape against one runLayersBatched per
    // full same-key window, each side on its own fresh engines with the
    // server's thread count.
    std::map<ta::EngineKey, std::vector<const ServiceRequest *>> by_key;
    for (const ServiceRequest &r : reqs)
        by_key[ta::engineKeyOf(r)].push_back(&r);
    Engines serial_engines, batch_engines;
    double serial_ms = 0, batched_ms = 0;
    size_t windows = 0;
    for (const auto &[key, list] : by_key) {
        for (size_t w0 = 0; w0 + kWindow <= list.size() && windows < 8;
             w0 += kWindow, ++windows) {
            std::vector<ta::BatchLayerRequest> layers;
            std::vector<ta::BufferManager::Pin> pins(kWindow);
            for (size_t j = 0; j < kWindow; ++j) {
                const ServiceRequest &r = *list[w0 + j];
                layers.push_back({r.shape, r.wbits, r.seed});
                if (!r.model.empty() && buffers &&
                    pinPlane(*buffers, r, pins[j]))
                    layers.back().view = &pins[j].view();
            }
            ta::TransArrayAccelerator &se =
                engineFor(serial_engines, key, kServeThreads);
            double a = nowMs();
            for (const ta::BatchLayerRequest &l : layers)
                if (l.view != nullptr)
                    se.runShapeView(l.shape, l.weightBits, *l.view);
                else
                    se.runShape(l.shape, l.weightBits, l.seed);
            serial_ms += nowMs() - a;
            ta::TransArrayAccelerator &be =
                engineFor(batch_engines, key, kServeThreads);
            a = nowMs();
            be.runLayersBatched(layers);
            batched_ms += nowMs() - a;
        }
    }

    const auto med = [](const std::vector<double> &v) {
        return ta::percentileOf(v, 50);
    };
    const std::pair<const char *, double> out[] = {
        {"protocol.parse_us", med(us["parse"])},
        {"protocol.serialize_us", med(us["serialize"])},
        {"service.predict_us", med(us["predict"])},
        {"storage.pin_hit_us", med(pin_hit_us)},
        {"storage.pin_miss_us", med(pin_miss_us)},
        {"workloads.synth_ms", med(synth_ms)},
        {"core.layer_ms", med(layer_ms)},
        {"core.layer_static_ms", med(static_ms)},
        {"core.batch_gain", batched_ms > 0 ? serial_ms / batched_ms : 0.0},
        {"exec.plan_hit_us", med(us["plan_hit"])},
        {"scoreboard.build_us", med(us["build"])},
        {"probe.unattributed_frac",
         request_ns == 0 ? 0.0
                         : 1.0 - static_cast<double>(attributed_ns) /
                                     static_cast<double>(request_ns)},
    };
    for (const auto &[name, value] : out)
        std::printf("%s %s\n", name, fullDigits(value).c_str());
    std::fprintf(stderr,
                 "ta_layer_probe: %s: %zu request(s), %zu batch window(s)\n",
                 spec->name, reqs.size(), windows);
    if (!trace_out.empty() && !ta::obs::Tracer::instance().flush()) {
        std::fprintf(stderr, "ta_layer_probe: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }
    return 0;
}
