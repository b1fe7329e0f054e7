/**
 * @file
 * Named adversarial serving scenarios and their CI gates. A
 * ScenarioSpec bundles everything `ta_loadgen --scenario` needs to
 * replay one deterministic stress pattern against a fresh cluster:
 * the seeded request trace, the arrival process (closed-loop
 * concurrency or open-loop offered arrival offsets), the cluster
 * shape (replicas, autoscaling bound, replica queue capacity), the
 * router's degradation knobs, and a seeded FaultPlan.
 *
 * The scenarios:
 *  - diurnal:              open-loop sinusoidal offered load over an
 *                          autoscaling cluster.
 *  - burst:                open-loop on/off bursts over tiny replica
 *                          queues — declared overload; admission
 *                          control sheds, nothing is lost.
 *  - zipf_engines:         Zipf-skewed engine popularity under
 *                          affinity routing (hot-slice stress).
 *  - crash_storm:          kill ceil(N/2) replicas mid-burst with
 *                          autoscaling on.
 *  - slow_client:          clients that stall their reads while the
 *                          main trace flows (backpressure stress).
 *  - cache_cold_stampede:  no warmup, high concurrency on few
 *                          engines — every replica plans cold at
 *                          once.
 *  - corrupt_cache_restart: corrupt a persisted plan-cache file and
 *                          kill its replica; the restart must reject
 *                          the snapshot and keep serving.
 *
 * Gates (checkScenarioGates): zero lost and zero duplicated
 * responses always; byte-verification mismatches always zero; shed
 * responses only when the scenario declares overload; non-overload
 * error responses never; no more served plus shed responses than
 * issued requests; p99 under the scenario's (generous,
 * liveness-flavored) bound; no slot abandoned; and at least
 * `minRestarts` crash-restarts where the scenario injects crashes.
 */

#ifndef TA_CLUSTER_SCENARIOS_H
#define TA_CLUSTER_SCENARIOS_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fault_injector.h"
#include "service/protocol.h"

namespace ta {

/** Everything needed to replay one named scenario. */
struct ScenarioSpec
{
    std::string name;
    std::string description;

    /** Cluster shape. */
    int replicas = 3;
    /** > replicas turns autoscaling on up to this many slots. */
    int maxReplicas = 0;
    /** Replica admission queue bound (0 = server default). */
    size_t queueCap = 0;

    /** Router degradation knobs. */
    int requestTimeoutMs = 8000;
    int maxRedispatch = 6;

    /** Arrival process: closed loop at `concurrency`, or open loop
     *  issuing request i at offset arrivalSec[i]. */
    size_t concurrency = 8;
    bool openLoop = false;
    std::vector<double> arrivalSec;

    /** The seeded request trace (arrivalSec.size() == trace.size()
     *  when openLoop). */
    std::vector<ServiceRequest> trace;

    /** Seeded fault schedule, fired by request index. */
    FaultPlan faults;

    /** Slow-client sidecar: `slowClients` extra connections that
     *  pipeline `slowClientRequests` requests each and stall
     *  `stallReadMs` between response reads. */
    int slowClients = 0;
    int stallReadMs = 0;
    size_t slowClientRequests = 0;

    /** Plan-cache persistence (corrupt_cache faults need files). */
    bool needsCacheFiles = false;
    int cacheSaveIntervalSec = 0;

    /** Run a warmup pass before measuring. */
    bool warmup = true;

    /** Gates. */
    bool allowShed = false;   ///< shed only under declared overload
    double p99BoundMs = 60000; ///< deadline-ish tail bound
    uint64_t minRestarts = 0; ///< crash scenarios must restart
};

/** Every scenario name, in canonical order. */
std::vector<std::string> scenarioNames();

/**
 * Seeded scenario request trace: CI-sized mixed-suite shapes over
 * `enginePool` engine variants picked with a Zipf(`zipfS`) popularity
 * distribution (0 = uniform). Exposed for the slow-client sidecar
 * and the unit tests; buildScenario uses it for every trace.
 */
std::vector<ServiceRequest> scenarioTrace(uint64_t seed, size_t count,
                                          bool quick, int enginePool,
                                          double zipfS);

/**
 * Build the named scenario's spec (trace, arrivals and faults derive
 * from `seed`; quick shrinks counts and shapes to CI size). False +
 * `err` for an unknown name.
 */
bool buildScenario(const std::string &name, uint64_t seed, bool quick,
                   ScenarioSpec &out, std::string &err);

/** What one scenario run observed (filled by the loadgen driver). */
struct ScenarioOutcome
{
    double rps = 0;
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    uint64_t requests = 0;
    uint64_t served = 0;     ///< ok responses
    uint64_t shed = 0;       ///< explicit `overloaded` rejections
    uint64_t errors = 0;     ///< non-overload error responses
    uint64_t lost = 0;       ///< never answered
    uint64_t duplicated = 0; ///< answered more than once
    uint64_t mismatches = 0; ///< byte-verification failures
    uint64_t restarts = 0;
    uint64_t scaleUps = 0;
    uint64_t scaleDowns = 0;
    uint64_t abandoned = 0;
    bool pass = false;
    std::vector<std::string> failures;
};

/**
 * Evaluate the gates for `spec` over `outcome`: fills outcome.pass
 * and outcome.failures (one human-readable line per violated gate)
 * and returns outcome.pass. Pure.
 */
bool checkScenarioGates(const ScenarioSpec &spec,
                        ScenarioOutcome &outcome);

} // namespace ta

#endif // TA_CLUSTER_SCENARIOS_H
