#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "bench_lib.h"
#include "common/rng.h"
#include "workloads/llama.h"
#include "workloads/resnet18.h"
#include "workloads/suite_runner.h"

namespace tabench {

namespace {

// Frozen at calibration (benchmark/README.md, "Calibration").
const std::vector<WorkloadSpec> kWorkloads = {
    {"llama_catalog", WorkloadKind::Catalog, 1000, 8, 0.4, 300, 40.0, 256},
    {"mixed_synth", WorkloadKind::Synth, 48, 8, 0.3, 10, 400.0, 64},
    {"tiny_cluster", WorkloadKind::Cluster, 1000, 16, 0.4, 250, 80.0, 256},
    {"offline_suite", WorkloadKind::Offline, 0, 0, 1.0, 0, 2000.0, 0},
};

constexpr uint64_t kPoolTag = 0x9001;
constexpr size_t kTinyPool = 256;
/** mixed_synth cells: 3 suites x 8 (size, wbits) combinations. */
constexpr size_t kSynthBlock = 24;

int
pickWbits(ta::Rng &rng)
{
    const int pick = static_cast<int>(rng.uniformInt(0, 3));
    return pick == 0 ? 8 : pick == 1 ? 6 : 4;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

const std::vector<WorkloadSpec> &
allWorkloads()
{
    return kWorkloads;
}

const std::vector<std::string> &
catalogSuiteNames()
{
    static const std::vector<std::string> names = {
        "llama7b-fc", "llama13b-fc", "llama8b-fc", "llama7b-attn"};
    return names;
}

std::vector<OfflineSuite>
offlineSuites()
{
    return {{ta::llamaFcLayers(ta::llama2_7b()), 4},
            {ta::llamaAttentionLayers(ta::llama2_7b()), 8},
            {ta::llamaFcLayers(ta::llama3_8b()), 4},
            {ta::resnet18Layers(), 4}};
}

ta::EngineKey
offlineKey()
{
    ta::EngineKey key;
    key.samples = ta::TransArrayAccelerator::Config{}.sampleLimit;
    return key;
}

std::vector<ta::ServiceRequest>
offlineRequests(uint64_t pass_seed)
{
    const ta::EngineKey key = offlineKey();
    std::vector<ta::ServiceRequest> out;
    for (const OfflineSuite &s : offlineSuites()) {
        for (size_t i = 0; i < s.suite.layers.size(); ++i) {
            ta::ServiceRequest r;
            r.shape = s.suite.layers[i].shape;
            r.wbits = s.wbits;
            r.seed = ta::layerSeed(pass_seed, i);
            r.samples = key.samples;
            out.push_back(r);
        }
    }
    return out;
}

RequestStream::RequestStream(const WorkloadSpec &spec, uint64_t seed)
    : spec_(spec), seed_(seed)
{
    if (spec.kind == WorkloadKind::Catalog) {
        // The planes ta_pack writes: suite layer i of each model at
        // seed layerSeed(base, i), 4-bit. Popularity follows catalog
        // order so every seed offers the same working set; the seed
        // picks the request sequence and the packed weights.
        const std::vector<ta::WorkloadSuite> suites = {
            ta::llamaFcLayers(ta::llama2_7b()),
            ta::llamaFcLayers(ta::llama2_13b()),
            ta::llamaFcLayers(ta::llama3_8b()),
            ta::llamaAttentionLayers(ta::llama2_7b())};
        for (size_t s = 0; s < suites.size(); ++s)
            for (size_t i = 0; i < suites[s].layers.size(); ++i) {
                planes_.push_back({suites[s].layers[i].shape, 4,
                                   ta::layerSeed(seed, i)});
                planeModel_.push_back(catalogSuiteNames()[s]);
            }
        double total = 0;
        for (size_t r = 0; r < planes_.size(); ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
            zipfCdf_.push_back(total);
        }
        for (double &c : zipfCdf_)
            c /= total;
    } else if (spec.kind == WorkloadKind::Cluster) {
        ta::Rng rng(mixSeed(seed, kPoolTag));
        for (size_t i = 0; i < kTinyPool; ++i) {
            Plane p{};
            const int suite = static_cast<int>(rng.uniformInt(0, 2));
            if (suite == 0) // FC projection
                p.shape = {static_cast<uint64_t>(128 * rng.uniformInt(1, 4)),
                           static_cast<uint64_t>(128 * rng.uniformInt(1, 4)),
                           static_cast<uint64_t>(64 * rng.uniformInt(1, 4))};
            else if (suite == 1) // attention score
                p.shape = {static_cast<uint64_t>(64 * rng.uniformInt(2, 4)),
                           64, 128};
            else // CNN im2col
                p.shape = {64,
                           static_cast<uint64_t>(64 * rng.uniformInt(2, 8)),
                           196};
            p.wbits = pickWbits(rng);
            p.seed = static_cast<uint64_t>(rng.uniformInt(1, 1 << 20));
            planes_.push_back(p);
        }
    }
}

ta::ServiceRequest
RequestStream::at(Phase phase, uint64_t index) const
{
    // The warm-up set draws from a fixed seed, so every run's set-up
    // does the same work and setup_s does not vary with the request mix.
    const uint64_t stream_seed = phase == Phase::Warmup ? 0 : seed_;
    ta::Rng rng(mixSeed(mixSeed(stream_seed, static_cast<uint64_t>(phase)),
                        index));
    ta::ServiceRequest r;
    switch (spec_.kind) {
    case WorkloadKind::Catalog: {
        const double u = rng.uniformDouble();
        const size_t i = static_cast<size_t>(
            std::lower_bound(zipfCdf_.begin(), zipfCdf_.end(), u) -
            zipfCdf_.begin());
        const size_t pick = std::min(i, planes_.size() - 1);
        r.shape = planes_[pick].shape;
        r.wbits = planes_[pick].wbits;
        r.seed = planes_[pick].seed;
        r.model = planeModel_[pick];
        r.samples = 64;
        break;
    }
    case WorkloadKind::Synth: {
        // The ta_loadgen full-size mix (FC projection, attention score
        // and CNN im2col shapes; 4/6/8-bit weights at 1/2, 1/4, 1/4;
        // 12.5% static scoreboard), stratified: every block of 24
        // requests holds each (suite, size, wbits, static) cell once in
        // a seeded order. A run's latency tail then does not move with
        // how many of the rare heaviest requests its seed drew.
        // CNN requests keep one size: the median falls among them, and
        // with ta_loadgen's four sizes it fell between two of them and
        // jumped with the host's speed.
        const uint64_t block = index / kSynthBlock;
        std::array<int, kSynthBlock> order;
        std::iota(order.begin(), order.end(), 0);
        ta::Rng shuffle(mixSeed(mixSeed(stream_seed, ~block),
                                static_cast<uint64_t>(phase)));
        for (size_t i = kSynthBlock - 1; i > 0; --i)
            std::swap(order[i], order[static_cast<size_t>(shuffle.uniformInt(
                                    0, static_cast<int64_t>(i)))]);
        const int cell = order[index % kSynthBlock];
        const int suite = cell / 8, v = cell % 8;
        const uint64_t size = static_cast<uint64_t>(v % 4 + 1);
        if (suite == 0)
            r.shape = {4096, 4096, 512 * size};
        else if (suite == 1)
            r.shape = {2048, 128, 2048};
        else
            r.shape = {512, 1152, 3136};
        constexpr int kBits[] = {8, 6, 4, 4};
        r.wbits = kBits[(v / 4 + v) % 4];
        r.useStatic = v == 7 - suite;
        // Fresh weights per request: the plan cache sees inserts.
        r.seed = 1 + (rng.next() >> 24);
        r.priority = static_cast<int>(rng.uniformInt(0, 2));
        r.samples = 64;
        break;
    }
    case WorkloadKind::Cluster: {
        const Plane &p = planes_[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(planes_.size()) - 1))];
        r.shape = p.shape;
        r.wbits = p.wbits;
        r.seed = p.seed;
        r.maxdist = 3 + static_cast<int>(rng.uniformInt(0, 2));
        r.useStatic = rng.bernoulli(0.5);
        r.priority = static_cast<int>(rng.uniformInt(0, 2));
        r.samples = 16;
        break;
    }
    case WorkloadKind::Offline:
        break;
    }
    return r;
}

std::string
requestKey(ta::ServiceRequest req)
{
    req.id = 0;
    req.priority = 1;
    req.traceId = 0;
    return ta::serializeRequest(req);
}

std::string
afterId(const std::string &line)
{
    const size_t comma = line.find(',');
    return comma == std::string::npos ? line : line.substr(comma);
}

} // namespace tabench
