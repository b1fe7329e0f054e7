/**
 * @file
 * The four benchmark workloads: their frozen configuration and the
 * seeded request streams ta_benchmark sends and the probe replays.
 *
 * A stream is a pure function of (workload, seed, phase, index), so
 * the same seed always sends the same requests no matter how fast the
 * system under test answers them — only how many get sent depends on
 * speed. ta_benchmark hands the server nothing but these generated
 * requests.
 */

#ifndef TA_BENCHMARK_WORKLOADS_H
#define TA_BENCHMARK_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "workloads/gemm_workload.h"

namespace tabench {

enum class WorkloadKind
{
    Catalog, ///< one ta_serve --catalog, Zipf over packed LLaMA planes
    Synth,   ///< one ta_serve, full-size mix, fresh weights per request
    Cluster, ///< ta_router over 2 replicas, quick shapes, 6 engine keys
    Offline, ///< in-process runSuite passes, no service stack
};

/** Request streams of one run. Each phase draws its own indices. */
enum class Phase : uint64_t
{
    Warmup = 1,
    Closed = 2,
    Open = 3,
};

/**
 * Frozen per-workload configuration. The open-loop rate is a tenth to
 * a third of the calibrated closed-loop throughput, low enough that
 * the host's speed swings do not drive the queue into saturation, and
 * the latency limit at least twice the calibrated tail, so a slow
 * host period alone does not push requests past it
 * (benchmark/README.md records the calibration). Both stay fixed, so
 * runs of different commits offer identical load and are judged
 * against identical limits.
 */
struct WorkloadSpec
{
    const char *name;
    WorkloadKind kind;
    size_t warmup;         ///< requests every stack set-up must finish
    size_t outstanding;    ///< closed-loop requests in flight
    double closedShare;    ///< share of --seconds in the closed loop
    double openRate;       ///< open-loop offered rate, req/s
    double latencyLimitMs; ///< SLO limit (open-loop request or pass)
    size_t probeRequests;  ///< requests ta_layer_probe replays
};

const WorkloadSpec *findWorkload(const std::string &name);

/** Every workload, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** Fixed server flags (the load model in benchmark/README.md). */
constexpr int kServeThreads = 2;
constexpr size_t kBufferPages = 2048;
constexpr size_t kWindow = 8;

/** Set-ups per run; setup_s reports their median. */
constexpr int kSetups = 3;

/**
 * Serving workloads read peak_rss_mb once this many closed-loop
 * responses are back. Under mixed_synth the server's memory grows with
 * each of its first ~1800 requests, so a reading after a timed phase
 * would rise and fall with the host's speed.
 */
constexpr size_t kRssAtResponses = 256;

/** Frozen bound on the open-loop generator's p99 lateness (ms): above
 *  it the load generator, not the system, shaped the latencies. */
constexpr double kLateBoundMs = 25.0;

/** ta_pack suite names of the llama_catalog workload. */
const std::vector<std::string> &catalogSuiteNames();

/** One suite of an offline pass and its weight width. */
struct OfflineSuite
{
    ta::WorkloadSuite suite;
    int wbits;
};

/** LLaMA-2-7B FC + attention, LLaMA-3-8B FC, ResNet-18. */
std::vector<OfflineSuite> offlineSuites();

/** Engine key every offline layer runs under (default Config). */
ta::EngineKey offlineKey();

/** Offline pass p draws its layer weights from seed + p. */
inline uint64_t
passSeed(uint64_t seed, size_t pass)
{
    return seed + pass;
}

/**
 * The offline pass's layers as protocol requests (shape, wbits,
 * layerSeed(passSeed, i), offline key), in dispatch order — how the
 * oracle and the probe address a suite layer.
 */
std::vector<ta::ServiceRequest> offlineRequests(uint64_t pass_seed);

/** The seeded request stream of one serving workload. */
class RequestStream
{
  public:
    RequestStream(const WorkloadSpec &spec, uint64_t seed);

    /** Request `index` of `phase` (id 0, untraced). */
    ta::ServiceRequest at(Phase phase, uint64_t index) const;

  private:
    struct Plane
    {
        ta::GemmShape shape;
        int wbits;
        uint64_t seed;
    };

    const WorkloadSpec &spec_;
    uint64_t seed_;
    /** Catalog planes (with their model) or the tiny-shape pool. */
    std::vector<Plane> planes_;
    std::vector<std::string> planeModel_;
    /** Zipf(1.1) cumulative weights over planes_ (catalog). */
    std::vector<double> zipfCdf_;
};

/** Canonical text of a request with id, priority and trace cleared:
 *  equal keys must get byte-identical responses. */
std::string requestKey(ta::ServiceRequest req);

/** A response line from its first comma on (the part past the id). */
std::string afterId(const std::string &line);

} // namespace tabench

#endif // TA_BENCHMARK_WORKLOADS_H
